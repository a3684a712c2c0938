"""How a raw ``(R, A, H)`` wedge maps onto a model's network input and code.

The whole difference between the paper's model families is where the
radial axis rides.  BCAE-2D "treats the radial direction as the channel
dimension of an image" (§2.4): the network sees ``R`` channels over an
``(A, H)`` image, needs only divisibility by ``2**d``, and its code is the
image downsampled ``d`` times.  BCAE / BCAE++ / BCAE-HT feed the same wedge
as a one-channel ``(R, A, H)`` volume (§2.2–2.3) of the exact spatial shape
the model was built for.  :class:`WedgeGeometry` is the one place that rule
is written down: the compiled front ends
(:class:`~repro.core.fast_encode.FastEncoder`,
:class:`~repro.core.fast_decode.FastDecoder`), ``BCAECompressor``, the
serving slab sizing and the static analyzer all ask it instead of forking
on the model class, and every geometry error comes from here.
"""

from __future__ import annotations

import dataclasses

from ..tpc.transforms import padded_length
from .bcae3d import BCAEEncoder3D
from .encoder2d import BCAEEncoder2D

__all__ = ["WedgeGeometry"]


@dataclasses.dataclass(frozen=True)
class WedgeGeometry:
    """Wedge ↔ network-input ↔ code shape arithmetic of one model.

    Attributes
    ----------
    radial:
        Radial layer count ``R`` the model was built for.
    code_channels:
        Channel count of the code the encoder emits / the decoders consume.
    stride:
        Total down/up-sampling factor of the 2-D family (``2**d``): the
        azimuth and the padded horizontal are multiples of it.
    volume:
        ``None`` when the radial axis rides as image channels (BCAE-2D);
        the exact ``(R, A, H_padded)`` network input when it is a spatial
        axis of a one-channel volume (the 3-D family).
    code_spatial:
        Spatial shape of a 3-D model's code (``None`` for the 2-D family,
        whose code is the ``(A, H_padded)`` image over ``stride``).
    """

    radial: int
    code_channels: int
    stride: int = 1
    volume: tuple[int, int, int] | None = None
    code_spatial: tuple[int, int, int] | None = None

    @classmethod
    def of(cls, model) -> "WedgeGeometry":
        """Geometry of a model (or of its bare encoder)."""

        encoder = getattr(model, "encoder", model)
        if isinstance(encoder, BCAEEncoder3D):
            return cls(encoder.spatial[0], encoder.code_channels,
                       volume=encoder.spatial,
                       code_spatial=encoder.code_shape[1:])
        if isinstance(encoder, BCAEEncoder2D):
            return cls(encoder.in_channels, encoder.code_channels,
                       stride=2 ** encoder.d)
        raise TypeError(
            f"no wedge geometry for {type(encoder).__name__}: expected a "
            "BCAEEncoder2D / BCAEEncoder3D (or a model holding one)"
        )

    def _expected(self) -> str:
        """The accepted wedge / code geometry, for error messages."""

        if self.volume is None:
            wedge = (f"(R={self.radial}, A, H) with A and the padded H "
                     f"positive multiples of {self.stride}")
            code = f"(C={self.code_channels}, a, h)"
        else:
            r, a, h = self.volume
            wedge = f"(R={r}, A={a}, H ≤ {h}) padded to H={h}"
            code = f"(C={self.code_channels}, r, a, h)"
        return f"wedges {wedge}, codes {code}"

    def network_input(self, wedge_spatial, horizontal_target: int | None = None,
                      ) -> tuple[int, tuple[int, ...]]:
        """``(channels, spatial)`` the network consumes for a raw wedge.

        ``horizontal_target`` is the padded horizontal length (default: the
        model's own — the next multiple of ``stride``, or the 3-D model's
        fixed input length).  Raises ``ValueError`` for a wedge, or a
        target, the model cannot take.
        """

        shape = tuple(int(v) for v in wedge_spatial)
        r, a, h = shape if len(shape) == 3 else (0, 0, 0)
        if horizontal_target is not None:
            target = int(horizontal_target)
        elif self.volume is None:
            target = padded_length(h, self.stride)
        else:
            target = self.volume[-1]
        if self.volume is None:
            fits = (r == self.radial and a > 0 and a % self.stride == 0
                    and target % self.stride == 0)
        else:
            fits = (r, a, target) == self.volume
        if not (fits and 0 < h <= target):
            raise ValueError(
                f"wedges of shape {shape} padded to H={target} do not fit "
                f"this model: expected {self._expected()}"
            )
        return (r, (a, target)) if self.volume is None else (1, (r, a, target))

    def code_shape(self, wedge_spatial) -> tuple[int, ...]:
        """Per-wedge code shape ``(C, …)`` for a raw wedge shape."""

        _c, spatial = self.network_input(wedge_spatial)
        if self.volume is None:
            spatial = tuple(s // self.stride for s in spatial)
        else:
            spatial = self.code_spatial
        return (self.code_channels,) + tuple(spatial)

    def check_codes(self, code_shape) -> None:
        """Raise ``ValueError`` unless ``code_shape`` is a ``(C, …)`` the
        decoders can take (rank and channel count)."""

        shape = tuple(int(v) for v in code_shape)
        rank = 3 if self.volume is None else 4
        if len(shape) != rank or shape[0] != self.code_channels:
            raise ValueError(
                f"codes of shape {shape} per wedge do not fit this model: "
                f"expected {self._expected()}"
            )

    def recon_shape(self, code_shape, original_horizontal: int,
                    ) -> tuple[int, int, int]:
        """``(R, A, H)`` of the reconstruction a code decodes to."""

        if self.volume is None:
            azimuth = int(code_shape[1]) * self.stride
        else:
            azimuth = self.volume[1]
        return (self.radial, azimuth, int(original_horizontal))
