"""Pure-numpy tile compositing kernel (fallback backend).

Per pixel, splats are composited front to back:

    alpha = min(ALPHA_MAX, opacity * exp(-q / 2)), or 0 where q > EXTENT^2
    rgb  += (alpha * T) * color     (each of the k colour channels)
    T    *= 1 - alpha

and a pixel takes no more splats once T < T_CUTOFF. A splat reaches EXTENT
standard deviations: the ellipse q <= EXTENT^2. The projection gives it the
tiles of the disc of radius EXTENT sqrt(lambda_max), which holds that
ellipse, so the cut is part of the model, not an approximation of it, and no
pixel depends on the tile grid. The C kernel skips the exp past the cut.

Looping over single splats costs a dozen numpy calls on a 16x16 tile per
splat, so call overhead dominates. Instead the splats are taken in chunks
and each chunk is one block of numpy calls over (splat, live pixel) pairs:

- alpha uses the same expressions, in the same order, as the per-splat form,
  and is 0 where q > EXTENT^2;
- the transmittance in front of each splat is a cumulative product over
  [T, 1 - alpha_0, ..., 1 - alpha_{m-1}];
- alpha is zeroed where that transmittance is below T_CUTOFF;
- each colour channel is the sum over rows [rgb, (alpha_0 T_0) color_0, ...];
- T is frozen at the first transmittance below T_CUTOFF. T never increases,
  since each step multiplies by 1 - alpha <= 1 (opacities are in [0, 1]), so
  a pixel that falls below the cutoff stays below it.

The cumulative product takes one multiply per row, in row order. So does
the sum: it runs along the outer axis, and numpy uses pairwise summation only
along the contiguous one. Every pixel thus sees the same floating-point
operations in the same order as the one-splat-at-a-time loop, and rgb and
transmit are bit-identical to it (tests/test_kernel.py checks against that
loop). A chunk holds at most CHUNK_ELEMENTS (splat,
pixel) pairs: 32 splats while all 256 pixels of a tile are live, more once
pixels drop out. Pixels below the cutoff are dropped between chunks, and the
tile stops when none is left.
"""

import numpy as np

ALPHA_MAX = 0.99
T_CUTOFF = 1e-4
# a splat's reach in standard deviations: its tile radius is EXTENT sqrt(lambda_max),
# and it adds nothing where its squared Mahalanobis distance q exceeds EXTENT^2
EXTENT = 3.0
# (splat, pixel) pairs per chunk; bounds the kernel's scratch memory
CHUNK_ELEMENTS = 1 << 13


def composite_tile(means, conics, colors, opacities, x0, y0, rgb, transmit):
    """Front-to-back composite pre-sorted splats into one tile.

    colors are (n, k); rgb (th, tw, k) and transmit (th, tw) are updated in
    place; transmit must start at 1 and rgb at 0 for a fresh tile.
    Opacities lie in [0, 1].
    """
    th, tw = transmit.shape
    n = means.shape[0]
    ys, xs = np.divmod(np.arange(th * tw), tw)
    px = (x0 + xs).astype(float)
    py = (y0 + ys).astype(float)
    flat_T = transmit.ravel()
    k = colors.shape[1]
    flat_rgb = rgb.reshape(th * tw, k)
    live = np.flatnonzero(flat_T >= T_CUTOFF)
    s = 0
    while s < n and live.size:
        p = live.size
        e = min(n, s + max(1, CHUNK_ELEMENTS // p))
        dx = px[live] - means[s:e, 0, None]
        dy = py[live] - means[s:e, 1, None]
        c = conics[s:e, :, None]
        q = c[:, 0] * dx * dx + 2.0 * c[:, 1] * dx * dy + c[:, 2] * dy * dy
        alpha = np.minimum(ALPHA_MAX, opacities[s:e, None] * np.exp(-0.5 * q))
        alpha[q > EXTENT * EXTENT] = 0.0

        # T[k]: transmittance in front of splat s + k, k = 0..e - s
        T = np.empty((e - s + 1, p))
        T[0] = flat_T[live]
        np.subtract(1.0, alpha, out=T[1:])
        np.multiply.accumulate(T, axis=0, out=T)
        ok = T >= T_CUTOFF
        alpha = np.where(ok[:-1], alpha, 0.0)

        # rows [rgb, (alpha_0 T_0) color_0, ...] summed in row order
        terms = np.empty((e - s + 1, k, p))
        terms[0] = flat_rgb[live].T
        np.multiply((alpha * T[:-1])[:, None], colors[s:e, :, None], out=terms[1:])
        flat_rgb[live] = np.add.reduce(terms, axis=0).T
        # T never increases, so ok is a prefix: freeze T at its first value
        # below the cutoff, or at the last one when there is none
        flat_T[live] = T[np.minimum(ok.sum(axis=0), e - s), np.arange(p)]
        live = live[ok[-1]]
        s = e
    # no-ops when ravel/reshape returned views, copies back otherwise
    transmit[...] = flat_T.reshape(th, tw)
    rgb[...] = flat_rgb.reshape(th, tw, k)
