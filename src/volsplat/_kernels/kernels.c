/* The engine's five compiled kernels: EWA projection, tile binning and tile
 * compositing for the renderer, the plane sweep and the sparse U-Net's row
 * scatter-add.
 *
 * Each follows its numpy counterpart with the same operations in the same
 * order. Arrays are C-contiguous float64 (row indices and tile rectangles
 * int64, pixel rectangles int32, the in-image flag one byte). The Python
 * wrappers in __init__.py check every dtype, shape, contiguity, row index
 * and tile rectangle, so this file does no validation; compositing writes no
 * index a pixel rectangle gives, and an empty one holds no pixel. The
 * projection, the binning and the scatter-add are bit-identical to their
 * numpy twins: the projection uses only + - * / and sqrt, each correctly
 * rounded, in numpy's order, the binning computes no float, and the
 * scatter-add makes one addition per element. A splat reaches EXTENT
 * standard deviations: the projection gives it the radius EXTENT
 * sqrt(lambda_max), the renderer the pixel rectangle of that disc, and
 * compositing cuts a (splat, pixel) pair outside that rectangle or whose q
 * exceeds EXTENT^2 before its exp. That ellipse lies inside the rectangle,
 * so a render does not depend on the tile grid. Compositing splits a tile
 * into CELL x CELL pixel cells and tests each pixel only against the splats
 * whose rectangle meets its cell, BLOCK per step, q and both cuts with no
 * branch, then runs the recurrence on the splats that pass, in order, with
 * libm's exp, which the numpy twin takes too (through math.exp), so its
 * output is byte-identical to the twin's. The plane sweep reads a zero
 * border and runs three passes per pixel (project, drop or queue, sample and
 * dot) whose vectorised loops keep each plane's operations and their order,
 * so its output is byte-identical to the scalar loop kept in
 * tests/plane_sweep_scalar.c. Built with -ffp-contract=off and without
 * fast-math, no a * b + c is fused and no sum is reassociated. The wrappers
 * allocate every array a kernel returns and every scratch array but the
 * compositing kernel's cell batches, which live on its stack; only the plane
 * sweep and the scatter-add add into their callers' arrays, across calls.
 * This file holds no buffer of its own.
 *
 * ALPHA_MAX, T_CUTOFF, EXTENT, SNAP_TOL, BLOCK, CELL and COV2D_DILATION are
 * not defined here: the build (_kernels.FLAGS) passes each as -DNAME=value from
 * the Python constant it mirrors, so the two sides cannot disagree.
 */
#include <math.h>
#include <stdint.h>

/* Front-to-back compositing of pre-sorted 2D splats into a fresh tile: the
 * per-pixel loop of _composite_np.py. means (n, 2), conics (n, 3), colors
 * (n, nc), opacities (n) and rects (n, 4), each splat's inclusive pixel
 * rectangle x0, x1, y0, y1, are read; rgb (th, tw, nc) and transmit
 * (th, tw) are written, not read: each pixel starts at rgb 0 and T = 1.
 * ALPHA_MAX, T_CUTOFF and EXTENT are _composite_np.py's; a splat adds
 * nothing at a pixel outside its rectangle, nor where q > EXTENT^2. Each of
 * the nc channels is its own sum, rgb += w * color with the same weight
 * w = alpha T, so a channel is bit-identical whatever the other channels
 * hold.
 *
 * The tile is split into CELL x CELL pixel cells, taken GROUP x GROUP cells
 * at a time (one block: a whole 16 px tile). One pass over the splats, in
 * order, appends each splat to the batch of every cell of the block its
 * rectangle meets, with one bit per cell pixel (bit CELL y + x) that the
 * rectangle holds, unless none of those pixels is still live
 * (T >= T_CUTOFF). A cell's batch is composited when it holds BATCH splats,
 * and once more after the pass; a cell whose pixels have all left takes no
 * more splats, and the pass stops when no cell of the block is live.
 *
 * A batch is padded to a multiple of BLOCK with entries that hold no pixel.
 * Each live pixel of the cell tests BLOCK of its splats per step: it
 * computes their q with no branch, into q[] and a bit mask that is set where
 * !(q > EXTENT^2) and the pixel's bit is set, and runs the recurrence on the
 * set bits in splat order, carrying its T and sums in rgb and transmit from
 * batch to batch. A splat left out of a cell's batches, or whose bit is
 * clear, is one the rule says adds nothing at the pixel, or one that comes
 * after the pixel left. Each q is the scalar loop's expression on the same
 * doubles, and with -ffp-contract=off and no fast-math every vector lane
 * rounds as that loop does; a NaN q is not cut, as there. A set bit takes the
 * scalar loop's steps in its order, and T < T_CUTOFF leaves the pixel at
 * once, mid-block or not. exp is libm's, which _composite_np.py takes
 * through math.exp. So a pixel's rgb and transmit are byte-identical to the
 * numpy twin's, and to the one-splat-at-a-time loop with no rectangles
 * whenever every rectangle holds the pixels where its splat's q <= EXTENT^2,
 * as the renderer's do. A rectangle with x0 > x1 or y0 > y1 holds no pixel.
 * The block's batches, about 27 KB, live on the stack. The per-pixel loop is
 * one inline body, compiled once at nc = 3, the renderer's colour, and once
 * for any other nc.
 */
#define BATCH (4 * BLOCK) /* splats per cell batch; a multiple of BLOCK */
#define GROUP 4           /* a block is GROUP x GROUP cells */
_Static_assert(CELL * CELL <= 32, "a cell's pixels are the bits of a uint32_t");
_Static_assert(GROUP * GROUP <= 32, "a block's cells are the bits of an unsigned");

/* One cell's batch of splats, and its pixels that are still live. */
struct cell {
    double mx[BATCH], my[BATCH], c0[BATCH], c1[BATCH], c2[BATCH];
    long index[BATCH];
    uint32_t cover[BATCH];
    uint32_t live;
    int len;
    long x, y; /* the cell's top-left pixel in the tile */
};

/* Composite the cell's batch into its live pixels, whose rgb and transmit
 * hold the sums and T so far, then empty the batch. */
static inline __attribute__((always_inline)) void
flush_body(struct cell *cl, const double *colors, const double *opacities, long nc, long x0,
           long y0, long tw, double *rgb, double *transmit)
{
    int len = cl->len;
    for (; len % BLOCK; len++) { /* padding: holds no pixel */
        cl->mx[len] = cl->my[len] = cl->c0[len] = cl->c1[len] = cl->c2[len] = 0.0;
        cl->index[len] = 0;
        cl->cover[len] = 0;
    }
    const double *mx = cl->mx, *my = cl->my, *c0 = cl->c0, *c1 = cl->c1, *c2 = cl->c2;
    for (uint32_t todo = cl->live; todo; todo &= todo - 1u) {
        const int b = __builtin_ctz(todo);
        const long p = (cl->y + b / CELL) * tw + cl->x + b % CELL;
        const double px = (double)(x0 + cl->x + b % CELL), py = (double)(y0 + cl->y + b / CELL);
        /* at nc = 3 the sums are locals, which the compiler keeps apart from
         * rgb: without them, before the cells, render_s rose 1.8-2.9 % on the
         * three perfbench workloads (10 alternating pairs, 2-vCPU host) */
        double t = transmit[p], sum3[3], *acc = nc == 3 ? sum3 : rgb + nc * p;
        for (int c = 0; c < 3 && nc == 3; c++)
            sum3[c] = rgb[3 * p + c];
        for (int i = 0; i < len; i += BLOCK) {
            double q[BLOCK];
            unsigned hit = 0;
            for (int j = 0; j < BLOCK; j++) {
                double dx = px - mx[i + j], dy = py - my[i + j];
                q[j] = c0[i + j] * dx * dx + 2.0 * c1[i + j] * dx * dy + c2[i + j] * dy * dy;
            }
            for (int j = 0; j < BLOCK; j++)
                hit |= ((unsigned)!(q[j] > EXTENT * EXTENT) & (unsigned)(cl->cover[i + j] >> b))
                       << j;
            while (hit) {
                int j = __builtin_ctz(hit);
                hit &= hit - 1u;
                const long s = cl->index[i + j];
                const double *col = colors + nc * s;
                double alpha = opacities[s] * exp(-0.5 * q[j]);
                if (alpha > ALPHA_MAX)
                    alpha = ALPHA_MAX;
                double w = alpha * t;
                for (long c = 0; c < nc; c++)
                    acc[c] += w * col[c];
                t *= 1.0 - alpha;
                if (t < T_CUTOFF) {
                    cl->live &= ~(1u << b);
                    goto left;
                }
            }
        }
    left:
        for (int c = 0; c < 3 && nc == 3; c++)
            rgb[3 * p + c] = sum3[c];
        transmit[p] = t;
    }
    cl->len = 0;
}

/* flush_body compiled once at nc = 3, the renderer's colour, and once for any
 * other nc; each is one function, so the pass below is compiled once */
static __attribute__((noinline)) void
flush3(struct cell *cl, const double *colors, const double *opacities, long x0, long y0, long tw,
       double *rgb, double *transmit)
{
    flush_body(cl, colors, opacities, 3, x0, y0, tw, rgb, transmit);
}

static __attribute__((noinline)) void
flush_any(struct cell *cl, const double *colors, const double *opacities, long nc, long x0,
          long y0, long tw, double *rgb, double *transmit)
{
    flush_body(cl, colors, opacities, nc, x0, y0, tw, rgb, transmit);
}

static inline void
flush(struct cell *cl, const double *colors, const double *opacities, long nc, long x0, long y0,
      long tw, double *rgb, double *transmit)
{
    if (nc == 3)
        flush3(cl, colors, opacities, x0, y0, tw, rgb, transmit);
    else
        flush_any(cl, colors, opacities, nc, x0, y0, tw, rgb, transmit);
}

void composite_tile(const double *means, const double *conics, const double *colors,
                    const double *opacities, const int32_t *rects, long n, long nc, long x0,
                    long y0, long th, long tw, double *rgb, double *transmit)
{
    for (long p = 0; p < th * tw; p++) {
        for (long c = 0; c < nc; c++)
            rgb[nc * p + c] = 0.0;
        transmit[p] = 1.0;
    }
    const long side = GROUP * CELL;
    for (long by = 0; by < th; by += side) {
        for (long bx = 0; bx < tw; bx += side) {
            struct cell cells[GROUP * GROUP];
            /* the block's cells: gw x gh, each with its pixels inside the tile live */
            const long gw = (tw - bx < side ? tw - bx + CELL - 1 : side) / CELL;
            const long gh = (th - by < side ? th - by + CELL - 1 : side) / CELL;
            unsigned open = 0; /* cells with a live pixel */
            for (long g = 0; g < gw * gh; g++) {
                struct cell *cl = cells + g;
                cl->x = bx + CELL * (g % gw);
                cl->y = by + CELL * (g / gw);
                cl->len = 0;
                cl->live = 0;
                for (long y = 0; y < CELL && cl->y + y < th; y++)
                    for (long x = 0; x < CELL && cl->x + x < tw; x++)
                        cl->live |= 1u << (CELL * y + x);
                open |= 1u << g;
            }
            /* the block's pixels in image coordinates */
            const long ax = x0 + bx, ay = y0 + by;
            const long ex = ax + CELL * gw - 1, ey = ay + CELL * gh - 1;
            for (long i = 0; i < n && open; i++) {
                const int32_t *r = rects + 4 * i;
                if (!((r[0] <= r[1]) & (r[2] <= r[3]) & (r[1] >= ax) & (r[0] <= ex)
                      & (r[3] >= ay) & (r[2] <= ey)))
                    continue;
                /* the rectangle clipped to the block, in block pixels */
                const long rx0 = r[0] > ax ? r[0] - ax : 0;
                const long rx1 = r[1] < ex ? r[1] - ax : ex - ax;
                const long ry0 = r[2] > ay ? r[2] - ay : 0;
                const long ry1 = r[3] < ey ? r[3] - ay : ey - ay;
                for (long gy = ry0 / CELL; gy <= ry1 / CELL; gy++) {
                    for (long gx = rx0 / CELL; gx <= rx1 / CELL; gx++) {
                        struct cell *cl = cells + gy * gw + gx;
                        /* the rectangle in the cell's pixels */
                        const long xa = rx0 > CELL * gx ? rx0 - CELL * gx : 0;
                        const long xb = rx1 < CELL * gx + CELL - 1 ? rx1 - CELL * gx : CELL - 1;
                        const long ya = ry0 > CELL * gy ? ry0 - CELL * gy : 0;
                        const long yb = ry1 < CELL * gy + CELL - 1 ? ry1 - CELL * gy : CELL - 1;
                        const uint32_t row = ((2u << (xb - xa)) - 1u) << xa;
                        uint32_t bits = 0;
                        for (long y = ya; y <= yb; y++)
                            bits |= row << (CELL * y);
                        if (!(bits & cl->live))
                            continue;
                        const int k = cl->len++;
                        cl->mx[k] = means[2 * i];
                        cl->my[k] = means[2 * i + 1];
                        cl->c0[k] = conics[3 * i];
                        cl->c1[k] = conics[3 * i + 1];
                        cl->c2[k] = conics[3 * i + 2];
                        cl->index[k] = i;
                        cl->cover[k] = bits;
                        if (cl->len == BATCH) {
                            flush(cl, colors, opacities, nc, x0, y0, tw, rgb, transmit);
                            if (!cl->live)
                                open &= ~(1u << (gy * gw + gx));
                        }
                    }
                }
            }
            for (long g = 0; g < gw * gh; g++)
                if (cells[g].len)
                    flush(cells + g, colors, opacities, nc, x0, y0, tw, rgb, transmit);
        }
    }
}

/* np.maximum(v, 0.0): a NaN v stays NaN, where fmax would give 0 */
static inline double at_least_zero(double v)
{
    return v < 0.0 ? 0.0 : v;
}

/* EWA projection of n splats, all in front of the near plane: the per-splat
 * arithmetic of _kernels.project_splats_np. p_cam (n, 3) are the centres in
 * the camera frame, rotations (n, 4) quaternions (w, x, y, z), not
 * necessarily unit, and scales (n, 3); cam is 16 doubles, fx, fy, cx, cy,
 * then the camera-to-world R (3x3, row major) and T, of which T is unread.
 * Each splat gets its pixel mean, mean2d (n, 2), the conic of its dilated 2D
 * covariance, conics (n, 3), its radius EXTENT sqrt(lambda_max), radius (n),
 * and inside (n), 1 where that footprint meets the width x height image and
 * 0 elsewhere.
 *
 * cov2d = (J W Rq S)(J W Rq S)^T, with J the perspective Jacobian at the
 * mean (j01 = j10 = 0), W = R^T the world-to-camera rotation, Rq the
 * quaternion's matrix (geometry.quat_to_rotmat) and S the scales. Its
 * determinant a c - b^2 is |u x v|^2 + d (a + c - d) (Lagrange's identity; u
 * and v the rows of J W Rq S, d = COV2D_DILATION): terms that cannot cancel
 * to zero or below, as a c - b^2 does for a needle splat. Every entry takes
 * numpy's operations in numpy's order, with no exp or libm call but sqrt,
 * and a NaN passes each max(., 0) as it does in numpy, so every output is
 * byte-identical to the twin's.
 */
void project_splats(const double *restrict p_cam, const double *restrict rotations,
                    const double *restrict scales, const double *restrict cam, long n,
                    long width, long height, double *restrict mean2d,
                    double *restrict conics, double *restrict radius,
                    unsigned char *restrict inside)
{
    const double fx = cam[0], fy = cam[1], cx = cam[2], cy = cam[3];
    const double *R = cam + 4; /* W[r][k] = R[k][r] */
    const double right = (double)width - 0.5, bottom = (double)height - 0.5;
    for (long i = 0; i < n; i++) {
        const double x = p_cam[3 * i], y = p_cam[3 * i + 1], z = p_cam[3 * i + 2];
        const double mx = fx * x / z + cx, my = fy * y / z + cy;
        const double j00 = fx / z, j02 = -fx * x / (z * z);
        const double j11 = fy / z, j12 = -fy * y / (z * z);
        double jw0[3], jw1[3];
        for (int k = 0; k < 3; k++) {
            jw0[k] = j00 * R[3 * k] + j02 * R[3 * k + 2];
            jw1[k] = j11 * R[3 * k + 1] + j12 * R[3 * k + 2];
        }
        const double *q = rotations + 4 * i;
        const double qw = q[0], qx = q[1], qy = q[2], qz = q[3];
        const double Rq[3][3] = {
            {1.0 - 2.0 * (qy * qy + qz * qz), 2.0 * (qx * qy - qw * qz), 2.0 * (qx * qz + qw * qy)},
            {2.0 * (qx * qy + qw * qz), 1.0 - 2.0 * (qx * qx + qz * qz), 2.0 * (qy * qz - qw * qx)},
            {2.0 * (qx * qz - qw * qy), 2.0 * (qy * qz + qw * qx), 1.0 - 2.0 * (qx * qx + qy * qy)},
        };
        double u[3], v[3];
        for (int k = 0; k < 3; k++) {
            const double s = scales[3 * i + k];
            u[k] = (jw0[0] * Rq[0][k] + jw0[1] * Rq[1][k] + jw0[2] * Rq[2][k]) * s;
            v[k] = (jw1[0] * Rq[0][k] + jw1[1] * Rq[1][k] + jw1[2] * Rq[2][k]) * s;
        }
        const double a = u[0] * u[0] + u[1] * u[1] + u[2] * u[2] + COV2D_DILATION;
        const double b = u[0] * v[0] + u[1] * v[1] + u[2] * v[2];
        const double c = v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + COV2D_DILATION;
        const double w0 = u[1] * v[2] - u[2] * v[1], w1 = u[2] * v[0] - u[0] * v[2];
        const double w2 = u[0] * v[1] - u[1] * v[0];
        const double det = w0 * w0 + w1 * w1 + w2 * w2 + COV2D_DILATION * (a + c - COV2D_DILATION);
        const double mid = 0.5 * (a + c);
        const double r = EXTENT * sqrt(mid + sqrt(at_least_zero(mid * mid - det)));
        mean2d[2 * i] = mx;
        mean2d[2 * i + 1] = my;
        conics[3 * i] = c / det;
        conics[3 * i + 1] = -b / det;
        conics[3 * i + 2] = a / det;
        radius[i] = r;
        inside[i] = (mx + r >= -0.5) & (mx - r <= right) & (my + r >= -0.5) & (my - r <= bottom);
    }
}

/* The splats of each tile, by a counting sort: the work of
 * _kernels.bin_tiles_np. rects (4, n) holds the splats' inclusive tile
 * rectangles, one row each of tx0, tx1, ty0 and ty1, inside the nx x ny
 * tile grid; tile t = ty nx + tx. Tile t's splats go to
 * rows[bounds[t] : bounds[t + 1]] in ascending order, which is the stable
 * sort by tile of the (tile, splat) pairs taken in splat order. bounds has
 * nx ny + 1 entries and rows one per pair. bounds[t + 1] first counts tile
 * t's pairs, then holds its start, and is moved past each row written, so
 * it ends as tile t's end.
 */
void bin_tiles(const int64_t *restrict rects, long n, long nx, long ny, int64_t *restrict rows,
               int64_t *restrict bounds)
{
    const int64_t *tx0 = rects, *tx1 = rects + n, *ty0 = rects + 2 * n, *ty1 = rects + 3 * n;
    for (long t = 0; t <= nx * ny; t++)
        bounds[t] = 0;
    for (long i = 0; i < n; i++)
        for (int64_t ty = ty0[i]; ty <= ty1[i]; ty++)
            for (int64_t tx = tx0[i]; tx <= tx1[i]; tx++)
                bounds[ty * nx + tx + 1]++;
    int64_t start = 0;
    for (long t = 1; t <= nx * ny; t++) {
        const int64_t count = bounds[t];
        bounds[t] = start;
        start += count;
    }
    for (long i = 0; i < n; i++)
        for (int64_t ty = ty0[i]; ty <= ty1[i]; ty++)
            for (int64_t tx = tx0[i]; tx <= tx1[i]; tx++)
                rows[bounds[ty * nx + tx + 1]++] = i;
}

/* Snap a coordinate within SNAP_TOL of an integer onto it, as
 * geometry.bilinear_sample does, so a self-warp is an exact identity. The
 * caller keeps x in [-0.5, size - 0.5]. There (long)(x + 0.5) is the nearest
 * integer, as rint gives, except at a tie or within an ulp of one, where
 * neither integer is within SNAP_TOL of x and x is returned either way. A
 * snap onto 0 from below gives +0.0 where rint gives -0.0; both floor to 0
 * and leave the fraction +0.0, so the weights are the same.
 */
static inline double snap(double x)
{
    double r = (double)(long)(x + 0.5);
    return fabs(x - r) < SNAP_TOL ? r : x;
}

/* One (reference, neighbour) pair of the plane sweep in
 * features.build_cost_volume. ref is an (h, w, c) feature grid and nbr one
 * inside a zero border, (h + 1, w + 1, c); a camera is 16 doubles: fx, fy,
 * cx, cy, then the camera-to-world R (3x3, row major) and T. For every
 * reference pixel and each of the d depth planes the pixel is unprojected at
 * that depth, moved into the neighbour's camera and projected
 * (geometry.unproject_pixel, world_to_cam, project_point). Where the
 * projection is in front of the neighbour and inside its grid, the neighbour
 * is sampled bilinearly (taps 00, 01, 10, 11 in that order, an off-grid tap
 * reading +0.0 from the border, as in geometry.bilinear_sample), dotted with
 * the reference feature, and dot / c is added to acc (h, w, d) while n_valid
 * (h, w, d) counts one more valid neighbour. The warped (h, w, c) grid is
 * never built. A border tap's weight is exactly 0 (fx = 0 on the last
 * column, fy = 0 on the last row), so it adds a +-0 product, which can only
 * flip the sign of a zero tap sum; the dot product starts from +0.0, so no
 * sign of zero reaches the score.
 *
 * Each pixel takes three passes over its planes:
 * 1. Project: q2, u and v of every plane into proj, with no branch.
 * 2. Classify: drop a plane behind the neighbour or off its grid; queue any
 *    other: its index and tap offset into taps, its four weights into proj.
 * 3. Sample each queued plane over contiguous channels into samples, then dot
 *    four planes at a time with four independent sums.
 * A (pixel, plane) still takes the same IEEE operations in the same order as
 * one plane at a time would: each tap sum is ((00 + 01) + 10) + 11 and each
 * dot runs over k = 0 .. c - 1 from +0.0. With -ffp-contract=off and no
 * fast-math a vectorised loop rounds each lane as the scalar loop does, so
 * acc and n_valid are byte-identical to the scalar kernel's, which skips the
 * off-grid taps. proj (7 d doubles), taps (2 d) and samples (d c doubles)
 * are the caller's scratch.
 */
void plane_sweep(const double *restrict ref, const double *restrict nbr, long h, long w, long c,
                 const double *restrict ref_cam, const double *restrict nbr_cam,
                 const double *restrict depths, long d, double *restrict acc,
                 double *restrict n_valid, double *restrict proj, int64_t *restrict taps,
                 double *restrict samples)
{
    const double fx0 = ref_cam[0], fy0 = ref_cam[1], cx0 = ref_cam[2], cy0 = ref_cam[3];
    const double fx1 = nbr_cam[0], fy1 = nbr_cam[1], cx1 = nbr_cam[2], cy1 = nbr_cam[3];
    double R0[9], T0[3], R1[9], T1[3];
    for (int i = 0; i < 9; i++) {
        R0[i] = ref_cam[4 + i];
        R1[i] = nbr_cam[4 + i];
    }
    for (int i = 0; i < 3; i++) {
        T0[i] = ref_cam[13 + i];
        T1[i] = nbr_cam[13 + i];
    }
    const double umax = (double)(w - 1), vmax = (double)(h - 1);
    double *qz = proj, *qu = proj + d, *qv = proj + 2 * d, *weights = proj + 3 * d;
    int64_t *plane = taps, *offset = taps + d;
    for (long y = 0; y < h; y++) {
        double yn = ((double)y - cy0) / fy0;
        for (long x = 0; x < w; x++) {
            double xn = ((double)x - cx0) / fx0;
            const double *f = ref + (y * w + x) * c;
            double *a = acc + (y * w + x) * d, *nv = n_valid + (y * w + x) * d;

            for (long m = 0; m < d; m++) {
                double z = depths[m], px = xn * z, py = yn * z;
                double p0 = px * R0[0] + py * R0[1] + z * R0[2] + T0[0];
                double p1 = px * R0[3] + py * R0[4] + z * R0[5] + T0[1];
                double p2 = px * R0[6] + py * R0[7] + z * R0[8] + T0[2];
                double e0 = p0 - T1[0], e1 = p1 - T1[1], e2 = p2 - T1[2];
                double q0 = e0 * R1[0] + e1 * R1[3] + e2 * R1[6];
                double q1 = e0 * R1[1] + e1 * R1[4] + e2 * R1[7];
                double q2 = e0 * R1[2] + e1 * R1[5] + e2 * R1[8];
                qz[m] = q2;
                qu[m] = fx1 * q0 / q2 + cx1;
                qv[m] = fy1 * q1 / q2 + cy1;
            }

            long n = 0;
            for (long m = 0; m < d; m++) {
                double u = qu[m], v = qv[m];
                /* a snap moves a coordinate by less than SNAP_TOL, so one
                 * outside [-0.5, size - 0.5] cannot come back onto the grid */
                if (!(qz[m] > 0.0 && u >= -0.5 && u <= umax + 0.5 && v >= -0.5
                      && v <= vmax + 0.5))
                    continue;
                u = snap(u);
                v = snap(v);
                if (!(u >= 0.0 && u <= umax && v >= 0.0 && v <= vmax))
                    continue;
                long x0 = (long)u, y0 = (long)v; /* floor, as u, v >= 0 */
                double fx = u - (double)x0, fy = v - (double)y0;
                double *wt = weights + 4 * n;
                wt[0] = (1.0 - fx) * (1.0 - fy);
                wt[1] = fx * (1.0 - fy);
                wt[2] = (1.0 - fx) * fy;
                wt[3] = fx * fy;
                plane[n] = m;
                offset[n++] = (y0 * (w + 1) + x0) * c;
            }

            for (long i = 0; i < n; i++) {
                const double *wt = weights + 4 * i;
                const double w00 = wt[0], w01 = wt[1], w10 = wt[2], w11 = wt[3];
                const double *t00 = nbr + offset[i];
                const double *t01 = t00 + c, *t10 = t00 + (w + 1) * c, *t11 = t10 + c;
                double *s = samples + i * c;
                for (long k = 0; k < c; k++)
                    s[k] = ((t00[k] * w00 + t01[k] * w01) + t10[k] * w10) + t11[k] * w11;
            }
            long i = 0;
            for (; i + 4 <= n; i += 4) {
                const double *s0 = samples + i * c, *s1 = s0 + c, *s2 = s1 + c, *s3 = s2 + c;
                double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
                for (long k = 0; k < c; k++) {
                    d0 += f[k] * s0[k];
                    d1 += f[k] * s1[k];
                    d2 += f[k] * s2[k];
                    d3 += f[k] * s3[k];
                }
                double dots[4] = {d0, d1, d2, d3};
                for (int j = 0; j < 4; j++) {
                    a[plane[i + j]] += dots[j] / (double)c;
                    nv[plane[i + j]] += 1.0;
                }
            }
            for (; i < n; i++) {
                const double *s0 = samples + i * c;
                double d0 = 0.0;
                for (long k = 0; k < c; k++)
                    d0 += f[k] * s0[k];
                a[plane[i]] += d0 / (double)c;
                nv[plane[i]] += 1.0;
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
