/* The plane sweep as kernels.c computed it before its three-pass rewrite: one
 * scalar chain per (pixel, plane), with libm rint and floor and the off-grid
 * tap tests inside the channel loop. test_plane_sweep.py builds this file
 * with _kernels.build and holds the shipped kernel's acc and n_valid to it
 * byte for byte. It is test-only and never loaded by the engine.
 */
#include <math.h>

/* Snap a coordinate within SNAP_TOL (geometry.SNAP_TOL, passed as a -D macro
 * by _kernels.build) of an integer onto it, as geometry.bilinear_sample does,
 * so a self-warp is an exact identity. */
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
