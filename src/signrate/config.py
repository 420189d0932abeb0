"""Run configuration: one rate evaluation point, serializable and hashable.

A :class:`RunConfig` pins everything that determines a single rate number:
the pulse, the signaling ratio, the receiver sampling, the alphabet, the
SNR, and the estimator with its sampling budget.  Two derived identifiers
matter downstream:

* ``fingerprint()`` hashes the full canonical configuration and names the
  result, so files produced from the same configuration can be recognized.

* ``stream_seed()`` hashes only the physical cell (everything except the
  estimator and its sample budget) together with the user seed.  The
  Monte Carlo sample stream therefore depends on where a cell sits, not
  on how many samples are requested, and a larger budget replays every
  sample of a smaller one before extending it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from .channel import component_alphabet, sigma2_from_snr_db
from .pulses import PulseSpec, as_float, as_int
from .transitions import check_samples

__all__ = ["RunConfig"]

_ESTIMATORS = ("mc", "enum")


def canonical_json(data) -> str:
    """``data`` as compact JSON with sorted keys, the one spelling of a
    configuration in echo lines, fingerprints and stream seeds."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class _CanonicalConfig:
    """Dict and canonical JSON round trip of a configuration dataclass."""

    # No instance dict here, so a slotted subclass has none either.
    __slots__ = ()

    @classmethod
    def from_dict(cls, data: dict):
        fields = dataclasses.fields(cls)
        unknown = set(data) - {f.name for f in fields}
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        missing = [f.name for f in fields if f.name not in data
                   and f.default is dataclasses.MISSING]
        if missing:
            raise ValueError(f"missing configuration keys: {sorted(missing)}")
        return cls(**data)

    def to_dict(self) -> dict:
        # Fields hold numbers, strings or tuples of them, so a shallow dict
        # is a whole copy; dataclasses.asdict would deep-copy every value.
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def fingerprint(self) -> str:
        digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()
        return digest[:16]


@dataclasses.dataclass(frozen=True, slots=True)
class RunConfig(_CanonicalConfig):
    family: str
    shape: float
    signaling_ratio: float
    oversampling: int
    alphabet: str
    snr_db: float
    span_symbols: int = 9
    estimator: str = "mc"
    samples: int = 1000000
    seed: int = 0
    schema_version: int = 1

    def __post_init__(self):
        # One type per field, so equal configurations compare, hash,
        # serialize and seed alike however the numbers were spelled.
        # PulseSpec types and validates the pulse numbers, which are
        # copied back from it.
        spec = self.pulse_spec()
        for name in ("oversampling", "span_symbols", "shape",
                     "signaling_ratio"):
            object.__setattr__(self, name, getattr(spec, name))
        for name in ("samples", "seed"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        object.__setattr__(self, "snr_db", as_float("snr_db", self.snr_db))
        component_alphabet(self.alphabet)
        sigma2_from_snr_db(self.snr_db)
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}, "
                             f"got {self.estimator!r}")
        check_samples(self.samples)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.schema_version != 1:
            raise ValueError(f"unsupported schema version {self.schema_version}")

    def pulse_spec(self) -> PulseSpec:
        return PulseSpec(family=self.family, shape=self.shape,
                         signaling_ratio=self.signaling_ratio,
                         span_symbols=self.span_symbols,
                         oversampling=self.oversampling)

    def stream_seed(self) -> int:
        """Seed for the cell's sample stream, independent of the budget."""
        cell = {
            "alphabet": self.alphabet,
            "family": self.family,
            "oversampling": self.oversampling,
            "seed": self.seed,
            "shape": self.shape,
            "signaling_ratio": self.signaling_ratio,
            "snr_db": self.snr_db,
            "span_symbols": self.span_symbols,
        }
        digest = hashlib.blake2b(canonical_json(cell).encode(),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big")
