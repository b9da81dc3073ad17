"""Deterministic synthetic cohort generation.

Emits string-valued lab records with embedded unit text so the full parsing
path is exercised end-to-end.  Default marginals are calibrated so that the
cohort's descriptive statistics and the downstream multi-system target
prevalence land near the reference registry values (target prevalence around
0.17 for the default spec).

Analytes are drawn independently except for documented latent factors that
correlate markers sharing a physiological determinant: one per organ system
(kidney, lipid, inflammation, metabolic) plus a haematology factor for
Hb/RBC/HCT.  Ordinal urinalysis levels are drawn through a Gaussian-copula
threshold model so their marginal probabilities are exact while still
loading on their system's factor.  The loadings are configuration values,
not clinical claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from statistics import NormalDist

import numpy as np

from .base import MultisysError, check_keys, is_finite, read_file, repeated
from .rng import SplitMix64


class SynthError(MultisysError):
    pass


MAX_ROWS = 1_000_000  # the most rows a cohort may be drawn with
ORDINAL_TOKENS = {0.0: "negative", 0.5: "±", 1.0: "1+", 2.0: "2+", 3.0: "3+"}
# The AnalyteSpec fields each distribution draws without; a spec may not set them.
_UNUSED_FIELDS = {"categorical": ("mu", "sigma", "lower", "upper", "unit", "decimals"),
                  "normal": ("probs",), "lognormal": ("probs",)}


@dataclass(frozen=True)
class AnalyteSpec:
    name: str
    dist: str  # "lognormal" | "normal" | "categorical"
    mu: float = 0.0  # log-median for lognormal, mean for normal
    sigma: float = 1.0
    probs: tuple[float, ...] = ()  # over ordinal levels 0/0.5/1/2/3
    lower: float | None = None
    upper: float | None = None
    unit: str = ""
    decimals: int = 2
    factor: str | None = None  # latent factor name, or None
    loading: float = 0.0  # correlation loading in [-1, 1]

    def __post_init__(self):
        if not all(type(text) is str for text in (self.name, self.dist, self.unit,
                                                   "" if self.factor is None else self.factor)):
            raise SynthError(f"{self.name!r}: name, dist, unit and factor must be strings")
        numbers = (self.mu, self.sigma, self.loading, *self.probs,
                   *(b for b in (self.lower, self.upper) if b is not None))
        if not (all(map(is_finite, numbers)) and type(self.decimals) is int):
            raise SynthError(f"{self.name}: distribution parameters must be finite numbers")
        if not 0 <= self.decimals <= 17:  # a double has at most 17 significant digits
            raise SynthError(f"{self.name}: decimals must be in 0..17")
        if self.dist not in ("lognormal", "normal", "categorical"):
            raise SynthError(f"{self.name}: unknown distribution {self.dist!r}")
        unused = [f.name for f in fields(self)
                  if f.name in _UNUSED_FIELDS[self.dist] and getattr(self, f.name) != f.default]
        if unused:
            raise SynthError(f"{self.name}: a {self.dist} analyte takes no {', '.join(unused)}")
        if self.sigma <= 0:  # a categorical analyte keeps the default 1.0
            raise SynthError(f"{self.name}: sigma must be positive")
        if self.dist == "categorical":
            if len(self.probs) != 5:
                raise SynthError(f"{self.name}: need 5 level probabilities")
            if min(self.probs) < 0 or abs(sum(self.probs) - 1.0) > 1e-9:
                raise SynthError(f"{self.name}: probabilities must be >= 0 and sum to 1")
        if self.lower is not None and self.upper is not None and self.lower >= self.upper:
            raise SynthError(f"{self.name}: truncation bounds out of order")
        if abs(self.loading) > 1.0:
            raise SynthError(f"{self.name}: loading must be in [-1, 1]")


@dataclass
class GeneratorSpec:
    n: int
    seed: int
    # a lambda, since default_analytes is defined below
    analytes: list[AnalyteSpec] = field(default_factory=lambda: default_analytes())

    def __post_init__(self):
        if not all(type(v) is int for v in (self.n, self.seed)):
            raise SynthError(f"n and seed must be integers, got {self.n!r} and {self.seed!r}")
        if not 1 <= self.n <= MAX_ROWS:
            raise SynthError(f"n must be in 1..{MAX_ROWS:,}, got {self.n}")
        if not self.analytes:
            raise SynthError("analytes must not be empty; leave the key out for the defaults")
        if twice := repeated(a.name for a in self.analytes):
            raise SynthError(f"repeated analyte name(s): {', '.join(twice)}")


def _lognormal(name, median, sigma, lower, upper, unit, **kw) -> AnalyteSpec:
    return AnalyteSpec(name, "lognormal", mu=math.log(median), sigma=sigma,
                       lower=lower, upper=upper, unit=unit, **kw)


def _normal(name, mean, sigma, lower, upper, unit, **kw) -> AnalyteSpec:
    return AnalyteSpec(name, "normal", mu=mean, sigma=sigma,
                       lower=lower, upper=upper, unit=unit, **kw)


def _ordinal(name, probs, **kw) -> AnalyteSpec:
    return AnalyteSpec(name, "categorical", probs=probs, **kw)


def default_analytes() -> list[AnalyteSpec]:
    """Marginals targeting the reference cohort's descriptive statistics.

    Markers of one organ system share a latent factor, so e.g. a patient
    with leucocyturia usually also shows an elevated white cell count.
    """
    return [
        _lognormal("Cr", 62.0, 0.30, 15, 1900, "μmol/L", decimals=1,
                   factor="kidney", loading=0.65),
        _lognormal("UA", 326.5, 0.27, 60, 1900, "μmol/L", decimals=1,
                   factor="kidney", loading=0.35),
        _normal("ALB", 40.2, 2.7, 18, 55, "g/L", decimals=1),
        _lognormal("HDL-c", 1.13, 0.216, 0.2, 5.5, "mmol/L",
                   factor="lipid", loading=-0.45),
        _normal("LDL-c", 2.80, 0.85, 0.2, 9, "mmol/L",
                factor="lipid", loading=0.30),
        _lognormal("TG", 1.43, 0.595, 0.1, 30, "mmol/L",
                   factor="lipid", loading=0.55),
        _lognormal("TC", 4.76, 0.228, 1.0, 20, "mmol/L",
                   factor="lipid", loading=0.40),
        _lognormal("GLU", 4.00, 0.52, 1.0, 40, "mmol/L",
                   factor="metabolic", loading=0.65),
        _lognormal("WBC", 6.50, 0.24, 1.5, 60, "×10⁹ /L",
                   factor="inflamm", loading=0.70),
        _normal("Hb", 137.8, 17.8, 40, 230, "g/L", decimals=0,
                factor="heme", loading=0.85),
        _lognormal("PLT", 222.5, 0.24, 30, 1200, "×10⁹ /L", decimals=0),
        _normal("HCT", 0.41, 0.044, 0.12, 0.70, "",
                factor="heme", loading=0.80),
        _normal("RBC", 4.60, 0.55, 1.5, 8, "×10¹²/L",
                factor="heme", loading=0.75),
        _normal("MCV", 90.0, 6.0, 55, 140, "fL", decimals=1),
        _normal("MCH", 30.0, 2.5, 15, 50, "pg", decimals=1),
        _lognormal("MPV", 10.5, 0.12, 5, 20, "fL", decimals=1),
        _lognormal("GGT", 25.0, 0.80, 2, 1900, "U/L", decimals=1),
        _normal("BUN", 5.5, 1.5, 1, 40, "mmol/L",
                factor="kidney", loading=0.55),
        _lognormal("AST", 20.0, 0.40, 2, 900, "U/L", decimals=1),
        _lognormal("ALT", 22.0, 0.50, 2, 900, "U/L", decimals=1),
        _ordinal("PRO", (0.945, 0.020, 0.018, 0.011, 0.006),
                 factor="kidney", loading=0.75),
        _ordinal("LEU", (0.955, 0.020, 0.012, 0.008, 0.005),
                 factor="inflamm", loading=0.75),
        _ordinal("NIT", (0.980, 0.010, 0.006, 0.002, 0.002),
                 factor="inflamm", loading=0.65),
        _ordinal("KET", (0.965, 0.010, 0.012, 0.008, 0.005),
                 factor="metabolic", loading=0.70),
        _ordinal("ERY", (0.930, 0.030, 0.020, 0.012, 0.008),
                 factor="kidney", loading=0.45),
    ]


def spec_from_json(path: str) -> GeneratorSpec:
    """Load a generator spec from its JSON config representation.

    The file holds `n`, `seed` and optionally `analytes`, whose entries use
    the `AnalyteSpec` field names, less those their distribution draws
    without; without the key the cohort has the default analytes.  An
    unreadable file, an unknown key or a malformed entry raises SynthError.
    """
    def analyte(entry: dict) -> AnalyteSpec:
        unused = _UNUSED_FIELDS.get(entry.get("dist"), ())
        check_keys(entry, [f.name for f in fields(AnalyteSpec) if f.name not in unused],
                   f"{entry['dist']} analyte" if unused else "analyte")
        return AnalyteSpec(**{**entry, "probs": tuple(entry.get("probs", ()))})

    def decode(cfg: dict) -> GeneratorSpec:
        check_keys(cfg, ("n", "seed", "analytes"), "spec")
        if "analytes" not in cfg:
            return GeneratorSpec(n=cfg["n"], seed=cfg["seed"])
        analytes = [analyte(entry) for entry in cfg["analytes"]]
        return GeneratorSpec(n=cfg["n"], seed=cfg["seed"], analytes=analytes)
    return read_file(path, decode, SynthError)


_STD_NORMAL = NormalDist()


def _cut_points(probs: tuple[float, ...]) -> np.ndarray:
    """The latent thresholds of the first four ordinal levels: a row takes the
    first level whose cut point is >= its latent normal, else the last.

    They are the standard normal quantiles of the running level probability,
    so the marginal level probabilities are exact regardless of the loading;
    the factor only shifts *which* rows land in the upper levels.  A level
    whose running probability reaches 1 takes every remaining row, and one
    whose running probability is 0 takes none.
    """
    cuts, acc = [], 0.0
    for prob in probs[:-1]:
        acc += prob
        cuts.append(math.inf if acc >= 1.0
                    else _STD_NORMAL.inv_cdf(acc) if acc > 0.0 else -math.inf)
    return np.array(cuts)


def _column(spec: AnalyteSpec, z: np.ndarray, latent: dict[str, np.ndarray]) -> list[str]:
    """One analyte's cells from its standard normal draws, mixed with its
    latent factor by its loading (still standard normal)."""
    load = spec.loading if spec.factor is not None else 0.0
    if load != 0.0:
        z = load * latent[spec.factor] + math.sqrt(1.0 - load * load) * z
    if spec.dist == "categorical":
        tokens = list(ORDINAL_TOKENS.values())
        return [tokens[i] for i in np.searchsorted(_cut_points(spec.probs), z).tolist()]
    with np.errstate(over="ignore"):  # reported below as not finite
        values = spec.mu + spec.sigma * z
    not_finite = SynthError(f"{spec.name}: a drawn value is not finite; check its mu and sigma")
    if spec.dist == "lognormal":
        try:
            values = np.array(list(map(math.exp, values.tolist())))
        except OverflowError:
            raise not_finite from None
    if not np.isfinite(values).all():
        raise not_finite
    if spec.lower is not None:
        values = np.where(spec.lower > values, spec.lower, values)
    if spec.upper is not None:
        values = np.where(spec.upper < values, spec.upper, values)
    fmt, unit = f".{spec.decimals}f", f" {spec.unit}" if spec.unit else ""
    return [f"{value:{fmt}}{unit}" for value in values.tolist()]


def generate(spec: GeneratorSpec) -> tuple[list[str], list[list[str]]]:
    """Generate (header, rows) of string cells; byte-deterministic per seed.

    Each row draws one standard normal per latent factor (in name order),
    then one per analyte, from a single SplitMix64 stream; the whole stream
    is drawn as one block and the cells are made column by column.
    """
    factors = sorted({a.factor for a in spec.analytes if a.factor is not None})
    width = len(factors) + len(spec.analytes)
    z = SplitMix64(spec.seed).normals(spec.n * width).reshape(spec.n, width)
    latent = {name: z[:, j] for j, name in enumerate(factors)}
    columns = [_column(analyte, z[:, len(factors) + i], latent)
               for i, analyte in enumerate(spec.analytes)]
    return [a.name for a in spec.analytes], [list(row) for row in zip(*columns)]
