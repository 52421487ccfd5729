/* Tile compositing as kernels.c computed it before it tested splats in
 * blocks: one splat at a time, with a branch on q > EXTENT^2 per (pixel,
 * splat). test_kernel.py builds this file with _kernels.build and holds the
 * shipped kernel's rgb and transmit to it byte for byte. It is test-only and
 * never loaded by the engine.
 */
#include <math.h>

/* Front-to-back compositing of pre-sorted 2D splats into one tile: the
 * per-pixel loop of _composite_np.py. means (n, 2), conics (n, 3),
 * colors (n, nc), opacities (n), rgb (th, tw, nc) and transmit (th, tw);
 * rgb and transmit are updated in place. ALPHA_MAX, T_CUTOFF and EXTENT
 * are _composite_np.py's, passed as -D macros by _kernels.build; a splat adds
 * nothing at a pixel where q > EXTENT^2.
 * Each channel is its own sum, rgb += w * color with the same w.
 */
void composite_tile(const double *means, const double *conics, const double *colors,
                    const double *opacities, long n, long nc, long x0, long y0, long th,
                    long tw, double *rgb, double *transmit)
{
    for (long p = 0; p < th * tw; p++) {
        double t = transmit[p];
        if (t < T_CUTOFF)
            continue;
        double px = (double)(x0 + p % tw), py = (double)(y0 + p / tw);
        for (long i = 0; i < n; i++) {
            const double *c = conics + 3 * i, *col = colors + nc * i;
            double dx = px - means[2 * i], dy = py - means[2 * i + 1];
            double q = c[0] * dx * dx + 2.0 * c[1] * dx * dy + c[2] * dy * dy;
            if (q > EXTENT * EXTENT)
                continue;
            double alpha = opacities[i] * exp(-0.5 * q);
            if (alpha > ALPHA_MAX)
                alpha = ALPHA_MAX;
            double w = alpha * t;
            for (long k = 0; k < nc; k++)
                rgb[nc * p + k] += w * col[k];
            t *= 1.0 - alpha;
            if (t < T_CUTOFF)
                break;
        }
        transmit[p] = t;
    }
}
