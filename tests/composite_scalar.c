/* Tile compositing as kernels.c computed it before it tested splats in
 * blocks: one splat at a time, with a branch on q > Q_SKIP per (pixel,
 * splat). test_kernel.py builds this file with _kernels.build and holds the
 * shipped kernel's rgb and transmit to it byte for byte. It is test-only and
 * never loaded by the engine.
 */
#include <math.h>

#define ALPHA_MAX 0.99
#define T_CUTOFF 1e-4
#define Q_SKIP 80.0

/* Front-to-back compositing of pre-sorted 2D splats into one tile: the
 * per-pixel loop of _composite_np.py. means (n, 2), conics (n, 3),
 * colors (n, 3), opacities (n), rgb (th, tw, 3) and transmit (th, tw); rgb
 * and transmit are updated in place. ALPHA_MAX, T_CUTOFF and Q_SKIP match
 * _composite_np.py; a splat adds nothing at a pixel where q > Q_SKIP.
 */
void composite_tile(const double *means, const double *conics, const double *colors,
                    const double *opacities, long n, long x0, long y0, long th, long tw,
                    double *rgb, double *transmit)
{
    for (long p = 0; p < th * tw; p++) {
        double t = transmit[p];
        if (t < T_CUTOFF)
            continue;
        double px = (double)(x0 + p % tw), py = (double)(y0 + p / tw);
        double r = rgb[3 * p], g = rgb[3 * p + 1], b = rgb[3 * p + 2];
        for (long i = 0; i < n; i++) {
            const double *c = conics + 3 * i, *col = colors + 3 * i;
            double dx = px - means[2 * i], dy = py - means[2 * i + 1];
            double q = c[0] * dx * dx + 2.0 * c[1] * dx * dy + c[2] * dy * dy;
            if (q > Q_SKIP)
                continue;
            double alpha = opacities[i] * exp(-0.5 * q);
            if (alpha > ALPHA_MAX)
                alpha = ALPHA_MAX;
            double w = alpha * t;
            r += w * col[0];
            g += w * col[1];
            b += w * col[2];
            t *= 1.0 - alpha;
            if (t < T_CUTOFF)
                break;
        }
        rgb[3 * p] = r;
        rgb[3 * p + 1] = g;
        rgb[3 * p + 2] = b;
        transmit[p] = t;
    }
}
