/* The engine's three compiled kernels: tile compositing, the plane sweep and
 * the sparse U-Net's row scatter-add.
 *
 * Each follows its numpy counterpart with the same operations in the same
 * order. Arrays are C-contiguous float64 (row indices int64). The Python
 * wrappers in __init__.py check every dtype, shape, contiguity and row
 * index, so this file does no validation. The scatter-add is bit-identical
 * to its numpy line, out[rows] += src: each element takes the one addition
 * out + src, and no sum is reordered. Compositing skips a (splat, pixel)
 * pair whose q exceeds Q_SKIP before its exp: there alpha <= e^-40 < 2^-57
 * would leave transmittance unchanged to the bit, so only rgb moves, by less
 * than 4.3e-18 per skipped pair.
 */
#include <math.h>
#include <stdint.h>

#define ALPHA_MAX 0.99
#define T_CUTOFF 1e-4
#define Q_SKIP 80.0
#define SNAP_TOL 1e-9

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

/* Snap a coordinate within SNAP_TOL of an integer onto it, as
 * geometry.bilinear_sample does, so a self-warp is an exact identity. */
static double snap(double x)
{
    double r = rint(x);
    return fabs(x - r) < SNAP_TOL ? r : x;
}

/* One (reference, neighbour) pair of the plane sweep in
 * features.build_cost_volume. ref and nbr are (h, w, c) feature grids; a
 * camera is 16 doubles: fx, fy, cx, cy, then the camera-to-world R (3x3, row
 * major) and T. For every reference pixel and each of the d depth planes the
 * pixel is unprojected at that depth, moved into the neighbour's camera and
 * projected (geometry.unproject_pixel, world_to_cam, project_point). Where the
 * projection is in front of the neighbour and inside its grid, the neighbour
 * is sampled bilinearly (taps 00, 01, 10, 11 in that order, off-grid taps
 * skipped, as in geometry.bilinear_sample), dotted with the reference feature,
 * and dot / c is added to acc (h, w, d) while n_valid (h, w, d) counts one
 * more valid neighbour. The warped (h, w, c) grid is never built. The numpy
 * sampler starts each tap sum from +0.0; here a zero sum may be -0.0, but the
 * dot product starts from +0.0, so no sign of zero reaches the score.
 */
void plane_sweep(const double *ref, const double *nbr, long h, long w, long c,
                 const double *ref_cam, const double *nbr_cam, const double *depths, long d,
                 double *acc, double *n_valid)
{
    const double *R0 = ref_cam + 4, *T0 = ref_cam + 13;
    const double *R1 = nbr_cam + 4, *T1 = nbr_cam + 13;
    for (long y = 0; y < h; y++) {
        double yn = ((double)y - ref_cam[3]) / ref_cam[1];
        for (long x = 0; x < w; x++) {
            double xn = ((double)x - ref_cam[2]) / ref_cam[0];
            const double *f = ref + (y * w + x) * c;
            double *a = acc + (y * w + x) * d, *nv = n_valid + (y * w + x) * d;
            for (long m = 0; m < d; m++) {
                double z = depths[m], px = xn * z, py = yn * z;
                double p[3];
                for (int i = 0; i < 3; i++)
                    p[i] = px * R0[3 * i] + py * R0[3 * i + 1] + z * R0[3 * i + 2] + T0[i];
                double q[3];
                for (int j = 0; j < 3; j++)
                    q[j] = (p[0] - T1[0]) * R1[j] + (p[1] - T1[1]) * R1[3 + j]
                           + (p[2] - T1[2]) * R1[6 + j];
                if (!(q[2] > 0.0))
                    continue;
                double u = snap(nbr_cam[0] * q[0] / q[2] + nbr_cam[2]);
                double v = snap(nbr_cam[1] * q[1] / q[2] + nbr_cam[3]);
                if (!(u >= 0.0 && u <= (double)(w - 1) && v >= 0.0 && v <= (double)(h - 1)))
                    continue;
                double u0 = floor(u), v0 = floor(v);
                double fx = u - u0, fy = v - v0;
                double w00 = (1.0 - fx) * (1.0 - fy), w01 = fx * (1.0 - fy);
                double w10 = (1.0 - fx) * fy, w11 = fx * fy;
                long x0 = (long)u0, y0 = (long)v0;
                int right = x0 + 1 < w, down = y0 + 1 < h;
                const double *t00 = nbr + (y0 * w + x0) * c;
                const double *t01 = t00 + c, *t10 = t00 + w * c, *t11 = t10 + c;
                double dot = 0.0;
                for (long k = 0; k < c; k++) {
                    double s = t00[k] * w00;
                    if (right)
                        s += t01[k] * w01;
                    if (down)
                        s += t10[k] * w10;
                    if (right && down)
                        s += t11[k] * w11;
                    dot += f[k] * s;
                }
                a[m] += dot / (double)c;
                nv[m] += 1.0;
            }
        }
    }
}

/* out[rows[j], :] += src[j, :] for j = 0 .. m - 1 in order: the scatter of one
 * kernel offset in sparse_unet._apply_map. out is (n, c), src (m, c); rows
 * are distinct and in [0, n), so the result is that of out[rows] += src.
 */
void scatter_add_rows(double *out, const int64_t *rows, const double *src, long m, long c)
{
    for (long j = 0; j < m; j++) {
        double *o = out + rows[j] * c;
        const double *s = src + j * c;
        for (long k = 0; k < c; k++)
            o[k] += s[k];
    }
}
