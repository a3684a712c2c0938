"""``repro.core`` — the paper's contribution: the BCAE model family.

* :class:`BCAE2D` — Algorithm 1/2 models ``BCAE-2D(m, n, d)`` (§2.4);
* :func:`build_bcae_pp` / :func:`build_bcae_ht` — improved 3D models (§2.3);
* :func:`build_bcae` — the original-BCAE baseline [10];
* :class:`BCAECompressor` — fp16 code round-trip with the paper's
  compression-ratio accounting (§3.1).
"""

from .bcae2d import BCAE2D, build_bcae2d
from .bcae3d import BCAEDecoder3D, BCAEEncoder3D, StagePlan, plan_stages
from .blocks import DownBlock3d, ResBlock2d, UpBlock3d, make_activation
from .compressor import BCAECompressor, CompressedWedges
from .decoder2d import BCAEDecoder2D
from .encoder2d import BCAEEncoder2D
from .fast_plan import CompiledStagePlan, fold_batchnorm, stage_kinds
from .fast_encode import FastEncoder, make_fast_encoder, supports_fast_encode
from .fast_decode import FastDecoder, make_fast_decoder, supports_fast_decode
from .geometry import WedgeGeometry
from .heads import BCAEOutput, BicephalousAutoencoder
from .search import Candidate, enumerate_candidates, pareto_front, search, throughput_frontier
from .model_zoo import (
    MODEL_NAMES,
    build_bcae,
    build_bcae_ht,
    build_bcae_pp,
    build_model,
    network_input_spatial,
)

__all__ = [
    "BCAE2D",
    "build_bcae2d",
    "BCAEEncoder2D",
    "BCAEDecoder2D",
    "BCAEEncoder3D",
    "BCAEDecoder3D",
    "StagePlan",
    "plan_stages",
    "ResBlock2d",
    "DownBlock3d",
    "UpBlock3d",
    "make_activation",
    "BCAEOutput",
    "BicephalousAutoencoder",
    "BCAECompressor",
    "CompressedWedges",
    "CompiledStagePlan",
    "fold_batchnorm",
    "stage_kinds",
    "FastEncoder",
    "make_fast_encoder",
    "supports_fast_encode",
    "FastDecoder",
    "make_fast_decoder",
    "supports_fast_decode",
    "WedgeGeometry",
    "Candidate",
    "enumerate_candidates",
    "throughput_frontier",
    "pareto_front",
    "search",
    "MODEL_NAMES",
    "build_model",
    "build_bcae",
    "build_bcae_pp",
    "build_bcae_ht",
    "network_input_spatial",
]
