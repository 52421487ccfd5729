"""Pure-numpy tile compositing kernel (fallback backend).

Per pixel, splats are composited front to back:

    alpha = min(ALPHA_MAX, opacity * exp(-q / 2)), or 0 where q > EXTENT^2
            or where the pixel lies outside the splat's pixel rectangle
    rgb  += (alpha * T) * color     (each of the k colour channels)
    T    *= 1 - alpha

and a pixel takes no more splats once T < T_CUTOFF. A splat reaches EXTENT
standard deviations: the ellipse q <= EXTENT^2. The renderer gives it the
pixel rectangle of the disc of radius EXTENT sqrt(lambda_max), which holds
that ellipse, so neither cut is an approximation of the model, and no pixel
depends on the tile grid. Both kernels skip the exp past either cut and take
libm's (`libm_exp`), and the C kernel tests a splat only in the cells of the
tile its rectangle meets.

Looping over single splats costs a dozen numpy calls on a 16x16 tile per
splat, so call overhead dominates. Instead the splats are taken in chunks
and each chunk is one block of numpy calls over (splat, live pixel) pairs:

- alpha uses the same expressions, in the same order, as the per-splat form,
  and is 0 past either cut, where no exp is taken;
- the transmittance in front of each splat is a cumulative product over
  [T, 1 - alpha_0, ..., 1 - alpha_{m-1}];
- alpha is zeroed where that transmittance is below T_CUTOFF;
- each colour channel is the sum over rows [rgb, (alpha_0 T_0) color_0, ...];
- T is frozen at the first transmittance below T_CUTOFF. T never increases,
  since each step multiplies by 1 - alpha <= 1 (opacities are in [0, 1]), so
  a pixel that falls below the cutoff stays below it.

The cumulative product takes one multiply per row, in row order. So does
the sum: numpy's add.reduce along the outer axis adds row by row while a row
holds two or more values, and sums pairwise when each holds one (one channel,
one live pixel), so that case takes add.accumulate. Every pixel thus sees
the same floating-point operations in the same order as the
one-splat-at-a-time loop, and rgb and transmit are bit-identical to it
(tests/test_kernel.py checks against that loop) and to the C kernel's. A
chunk holds at most CHUNK_ELEMENTS (splat, pixel) pairs: 32 splats while
all 256 pixels of a tile are live, more once pixels drop out. Pixels below
the cutoff are dropped between chunks, and the tile stops when none is left.
"""

import math

import numpy as np

ALPHA_MAX = 0.99
T_CUTOFF = 1e-4
# a splat's reach in standard deviations: its radius is EXTENT sqrt(lambda_max),
# and it adds nothing where its squared Mahalanobis distance q exceeds EXTENT^2
EXTENT = 3.0
# (splat, pixel) pairs per chunk; bounds the kernel's scratch memory
CHUNK_ELEMENTS = 1 << 13
# ln(DBL_MAX): libm's exp is finite up to it and inf past it
EXP_MAX = math.log(np.finfo(float).max)


def libm_exp(x):
    """exp of each value of the 1-D float64 array x, from the C library's
    exp, which math.exp calls and kernels.c links, so both kernels take the
    same bytes: numpy's own exp can differ from it in the last bit. Past
    EXP_MAX, where math.exp raises OverflowError, it is inf, as libm's is."""
    over = x > EXP_MAX
    out = np.fromiter(map(math.exp, np.where(over, 0.0, x).tolist()), float, x.size)
    out[over] = np.inf
    return out


def composite_tile(means, conics, colors, opacities, rects, x0, y0, th, tw):
    """Front-to-back composite pre-sorted splats into a fresh th x tw tile
    whose top-left pixel is (x0, y0).

    colors are (n, k), opacities lie in [0, 1] and rects (n, 4) holds each
    splat's inclusive pixel rectangle, x0, x1, y0 and y1, int32: the splat
    adds nothing at a pixel outside it. Returns new arrays: the accumulated
    colour, rgb (th, tw, k), started at 0, and the remaining transmittance,
    transmit (th, tw), started at 1.
    """
    n, k = colors.shape
    ys, xs = np.divmod(np.arange(th * tw), tw)
    ix, iy = x0 + xs, y0 + ys
    px, py = ix.astype(float), iy.astype(float)
    flat_T = np.ones(th * tw)
    flat_rgb = np.zeros((th * tw, k))
    live = np.arange(th * tw)
    s = 0
    while s < n and live.size:
        p = live.size
        e = min(n, s + max(1, CHUNK_ELEMENTS // p))
        dx = px[live] - means[s:e, 0, None]
        dy = py[live] - means[s:e, 1, None]
        c = conics[s:e, :, None]
        q = c[:, 0] * dx * dx + 2.0 * c[:, 1] * dx * dy + c[:, 2] * dy * dy
        r = rects[s:e, :, None]
        keep = (~(q > EXTENT * EXTENT) & (ix[live] >= r[:, 0]) & (ix[live] <= r[:, 1])
                & (iy[live] >= r[:, 2]) & (iy[live] <= r[:, 3]))
        alpha = np.zeros(q.shape)
        alpha[keep] = libm_exp(-0.5 * q[keep])
        alpha = np.minimum(ALPHA_MAX, opacities[s:e, None] * alpha)

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
        # add.reduce sums pairwise where each row is one value: accumulate there
        sums = np.add.accumulate(terms, axis=0)[-1] if k * p == 1 else np.add.reduce(terms, 0)
        flat_rgb[live] = sums.T
        # T never increases, so ok is a prefix: freeze T at its first value
        # below the cutoff, or at the last one when there is none
        flat_T[live] = T[np.minimum(ok.sum(axis=0), e - s), np.arange(p)]
        live = live[ok[-1]]
        s = e
    return flat_rgb.reshape(th, tw, k), flat_T.reshape(th, tw)
