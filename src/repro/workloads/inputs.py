"""Synthetic input datasets with high-level features.

The paper invokes functions with inputs from open datasets (ImageNet,
THUMOS, IMDB reviews, DAVIS, word-collocation corpora) and extracts
high-level features — file size, image resolution, video duration — to
predict execution time (Section III-2). We generate synthetic inputs whose
feature distributions play the same role: a few *relevant* features drive
execution time through simple polynomial relations, while *irrelevant*
features (user ids, regions, flags) are present so the "train on all
features" regime of Fig. 4 is exercised faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class FeatureSpec:
    """Distribution of one input feature.

    ``kind`` selects the sampler:

    * ``lognormal`` — params ``(median, sigma)``; dispersion scales sigma.
    * ``uniform`` — params ``(lo, hi)``; dispersion scales the half-range
      around the centre.
    * ``choice`` — params are the discrete values; dispersion is ignored.

    ``relevant`` marks whether the feature actually influences execution
    time (the "selected features" of Fig. 4).
    """

    name: str
    kind: str
    params: Tuple[float, ...]
    relevant: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("lognormal", "uniform", "choice"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "lognormal":
            median, sigma = self.params
            if median <= 0 or sigma < 0:
                raise ValueError(f"bad lognormal params {self.params}")
        elif self.kind == "uniform":
            lo, hi = self.params
            if hi < lo:
                raise ValueError(f"bad uniform params {self.params}")
        elif not self.params:
            raise ValueError("choice feature needs at least one value")

    def sample(self, rng: np.random.Generator, dispersion: float = 1.0) -> float:
        """Draw one value; ``dispersion`` widens/narrows the distribution."""
        if dispersion < 0:
            raise ValueError(f"negative dispersion {dispersion}")
        if self.kind == "lognormal":
            median, sigma = self.params
            return float(median * np.exp(sigma * dispersion * rng.standard_normal()))
        if self.kind == "uniform":
            lo, hi = self.params
            centre = (lo + hi) / 2.0
            half = (hi - lo) / 2.0 * min(dispersion, 1.0)
            return float(rng.uniform(centre - half, centre + half))
        # Indexing by ``rng.integers`` draws exactly what ``rng.choice``
        # draws, without its array conversion.
        return float(self.params[rng.integers(len(self.params))])


@dataclass(frozen=True)
class SyntheticInputSpace:
    """A named collection of feature distributions."""

    name: str
    features: Tuple[FeatureSpec, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate feature names in {names}")

    @property
    def feature_names(self) -> List[str]:
        return [f.name for f in self.features]

    @property
    def relevant_names(self) -> List[str]:
        return [f.name for f in self.features if f.relevant]

    def sample(self, rng: np.random.Generator,
               dispersion: float = 1.0) -> Dict[str, float]:
        """Draw one input as a feature → value mapping."""
        return {f.name: f.sample(rng, dispersion) for f in self.features}


@dataclass
class InputDataset:
    """A materialised table of sampled inputs (rows of feature dicts)."""

    space: SyntheticInputSpace
    rows: List[Dict[str, float]]

    @classmethod
    def generate(cls, space: SyntheticInputSpace, n: int,
                 rng: np.random.Generator,
                 dispersion: float = 1.0) -> "InputDataset":
        if n < 1:
            raise ValueError(f"need at least one row, got {n}")
        return cls(space, [space.sample(rng, dispersion) for _ in range(n)])

    def __len__(self) -> int:
        return len(self.rows)

    def to_matrix(self, feature_names: Sequence[str]) -> np.ndarray:
        """Rows as a dense (n, len(feature_names)) array."""
        return np.array(
            [[row[name] for name in feature_names] for row in self.rows])


# ---------------------------------------------------------------------------
# Ready-made input spaces for the benchmark families. Irrelevant features
# deliberately pollute each space.
# ---------------------------------------------------------------------------
_COMMON_NOISE = (
    FeatureSpec("user_id", "choice", tuple(float(i) for i in range(1, 65))),
    FeatureSpec("region_code", "choice", (1.0, 2.0, 3.0, 4.0)),
    FeatureSpec("priority_flag", "choice", (0.0, 1.0)),
)


def json_space() -> SyntheticInputSpace:
    """JSON documents fetched from storage (WebServ-like)."""
    return SyntheticInputSpace("json", (
        FeatureSpec("file_kb", "lognormal", (24.0, 0.4), relevant=True),
        FeatureSpec("n_records", "lognormal", (120.0, 0.5), relevant=True),
    ) + _COMMON_NOISE)


def image_space() -> SyntheticInputSpace:
    """Images (ImgProc / CNNServ), ImageNet-like resolution spread."""
    return SyntheticInputSpace("image", (
        FeatureSpec("megapixels", "lognormal", (1.6, 0.55), relevant=True),
        FeatureSpec("channels", "choice", (1.0, 3.0)),
        FeatureSpec("jpeg_quality", "uniform", (60.0, 95.0)),
    ) + _COMMON_NOISE)


def video_space() -> SyntheticInputSpace:
    """Video clips (VidProc / VidAn), THUMOS/DAVIS-like durations."""
    return SyntheticInputSpace("video", (
        FeatureSpec("duration_s", "lognormal", (28.0, 0.7), relevant=True),
        FeatureSpec("fps", "choice", (24.0, 30.0, 60.0), relevant=True),
        FeatureSpec("height_px", "choice", (480.0, 720.0, 1080.0)),
    ) + _COMMON_NOISE)


def text_space() -> SyntheticInputSpace:
    """Text documents (RNNServ / LRServ / MLTrain), IMDB-like lengths."""
    return SyntheticInputSpace("text", (
        FeatureSpec("length_kb", "lognormal", (6.0, 0.5), relevant=True),
        FeatureSpec("vocab_k", "uniform", (4.0, 12.0)),
    ) + _COMMON_NOISE)


def tabular_space() -> SyntheticInputSpace:
    """Tabular analytics inputs (DataAn-like wage data)."""
    return SyntheticInputSpace("tabular", (
        FeatureSpec("n_rows_k", "lognormal", (40.0, 0.45), relevant=True),
        FeatureSpec("n_columns", "uniform", (8.0, 24.0)),
    ) + _COMMON_NOISE)
