/* The compiled loops of nanopair: the cell binning behind
 * nanopair.neighbor.build_cell_grid (a counting sort into a CSR cell list),
 * the Verlet-list build behind nanopair.neighbor.build_neighbor_lists, which
 * reads each local's 27 stencil cells as 9 contiguous runs of that list, and
 * the pair-force row loops behind nanopair.potential.compute_forces, which
 * also sum the half-list reactions. nanopair.kernel compiles this file once
 * per process.
 *
 * `pair_forces` picks one row loop per law. The Lennard-Jones loop is staged:
 * per block of a row's entries it gathers the in-cutoff partners, evaluates
 * the law on them in loops the compiler vectorises (two doubles per SSE2
 * register), and sums in row order. The spring-dashpot loop stays scalar: its
 * rows hold a few entries and few of those are in contact. Both follow the
 * operation order of the Python reference laws in tests/test_potential.py
 * (`force_scalar`, `pair_energy`). A vector lane performs the scalar
 * operations in the scalar order, no sum is reordered, and the build forbids
 * fused multiply-adds and fast-math (-ffp-contract=off, see
 * nanopair.kernel._CC), so the results do not depend on the machine, the
 * optimisation level or the staging.
 *
 * Arrays are C-contiguous: x and v are coordinate-major (3, n_total), mat is
 * the (n_local, width) list of which row i holds counts[i] real partners, and
 * own, and react for half lists, are (n_local, 3).
 */
#include <math.h>
#include <stdint.h>

enum { LAW_LJ = 0, LAW_SD = 1 };

/* Entries of a list row that the Lennard-Jones loop stages at a time. */
enum { BLOCK = 256 };

/* The flat list offset of the first entry of blk[0, m) (row i, entries from
 * b on) whose partner index is out of range or coincides with i: the scalar
 * rescan of a block in which a fault was seen, in row order. */
static int64_t first_fault(const double *x, int64_t n_total, const int32_t *blk, int64_t m,
                           int64_t i, int64_t width, int64_t b)
{
    const double *y = x + n_total, *z = y + n_total;
    for (int64_t k = 0; k < m; ++k) {
        const int32_t j = blk[k];
        if (j < 0 || j >= n_total)
            return i * width + b + k;
        const double dx = x[i] - x[j], dy = y[i] - y[j], dz = z[i] - z[j];
        if (dx * dx + dy * dy + dz * dz == 0.0)
            return i * width + b + k;
    }
    return -1; /* not reached: the caller saw a fault in the block */
}

/* All local rows under the Lennard-Jones law (prm: epsilon, sigma^6):
 * own[i] = sum of s * delta over the row's in-cutoff partners, in row order.
 * With half, s * delta of every in-cutoff local partner j is also added to
 * react[j], in row-major entry order, for the caller to subtract. With energy,
 * energy[i] = the row's sum of pair energies, at weight 1 for a local partner
 * of a half list and 0.5 otherwise. Returns -1, or the flat list offset
 * i * width + k of the first entry whose partner index is out of range or
 * coincides with i.
 *
 * A row is taken in blocks of at most BLOCK entries, each in three passes:
 * (1) check the block's partner indices by their min and max, then gather
 * delta and rsq of its in-cutoff entries to the front of the stage arrays
 * (every entry is written, only a kept one advances the end, so the loop does
 * not branch on the cutoff); (2) evaluate s, and the pair energy, for the kept
 * entries in loops without a carried dependence, which the compiler
 * vectorises; (3) sum s * delta in row order and, for half lists, add it to
 * react[j] of a local partner j. Each lane does the scalar operations in the
 * scalar order and no sum is reordered, so the results are those of one
 * scalar loop over the row, bit for bit. An entry at or beyond the cutoff
 * would add s * delta = +-0 to a sum that starts at +0.0; leaving it out
 * changes no bit. A NaN rsq is kept, so a non-finite position still
 * reaches the caller as a non-finite force. */
static inline __attribute__((always_inline)) int64_t lj_rows(
    const double *prm, double cutoff_rsq,
    const double *x, int64_t n_total,
    const int32_t *mat, int64_t width, const int32_t *counts,
    int64_t n_local, const int half,
    double *own, double *react, double *energy)
{
    const double *y = x + n_total, *z = y + n_total;
    const double eps = prm[0], sigma6 = prm[1];
    double dx[BLOCK], dy[BLOCK], dz[BLOCK], rsq[BLOCK], s[BLOCK], pe[BLOCK];
    int32_t jj[BLOCK];
    for (int64_t i = 0; i < n_local; ++i) {
        const int32_t *row = mat + i * width;
        const double xi = x[i], yi = y[i], zi = z[i];
        double fx = 0.0, fy = 0.0, fz = 0.0, e_sum = 0.0;
        const int64_t n = counts[i];
        for (int64_t b = 0; b < n; b += BLOCK) {
            const int32_t *blk = row + b;
            const int m = n - b < BLOCK ? (int)(n - b) : BLOCK;
            int32_t lo = blk[0], hi = blk[0];
            for (int k = 1; k < m; ++k) {
                lo = blk[k] < lo ? blk[k] : lo;
                hi = blk[k] > hi ? blk[k] : hi;
            }
            if (lo < 0 || hi >= n_total)
                return first_fault(x, n_total, blk, m, i, width, b);
            int e = 0, coincident = 0;
            for (int k = 0; k < m; ++k) {
                const int32_t j = blk[k];
                const double ddx = xi - x[j], ddy = yi - y[j], ddz = zi - z[j];
                const double r2 = ddx * ddx + ddy * ddy + ddz * ddz;
                dx[e] = ddx;
                dy[e] = ddy;
                dz[e] = ddz;
                rsq[e] = r2;
                jj[e] = j;
                coincident |= r2 == 0.0;
                e += !(r2 >= cutoff_rsq);
            }
            if (coincident)
                return first_fault(x, n_total, blk, m, i, width, b);
            for (int q = 0; q < e; ++q) {
                const double sr2 = 1.0 / rsq[q];
                const double sr6 = sr2 * sr2 * sr2 * sigma6;
                s[q] = 48.0 * sr6 * (sr6 - 0.5) * sr2 * eps;
            }
            if (energy)
                for (int q = 0; q < e; ++q) {
                    const double sr6 = sigma6 / (rsq[q] * rsq[q] * rsq[q]);
                    pe[q] = 4.0 * eps * (sr6 * sr6 - sr6);
                }
            for (int q = 0; q < e; ++q) {
                const double gx = s[q] * dx[q], gy = s[q] * dy[q], gz = s[q] * dz[q];
                fx += gx;
                fy += gy;
                fz += gz;
                const int local = jj[q] < n_local;
                if (half && local) {
                    double *r = react + 3 * jj[q];
                    r[0] += gx;
                    r[1] += gy;
                    r[2] += gz;
                }
                if (energy)
                    e_sum += (half && local) ? pe[q] : 0.5 * pe[q];
            }
        }
        own[3 * i] = fx;
        own[3 * i + 1] = fy;
        own[3 * i + 2] = fz;
        if (energy)
            energy[i] = e_sum;
    }
    return -1;
}

/* All local rows under the spring-dashpot law (prm: stiffness, damping,
 * diameter), with the outputs and the return value of `lj_rows`, in one
 * scalar loop per row: rows hold a few entries, few of them in contact, and
 * those are the only ones evaluated. The dashpot term reads v only with
 * use_vel. */
static int64_t sd_rows(
    const double *prm, double cutoff_rsq, int use_vel,
    const double *x, const double *v, int64_t n_total,
    const int32_t *mat, int64_t width, const int32_t *counts,
    int64_t n_local, int half,
    double *own, double *react, double *energy)
{
    const double *y = x + n_total, *z = y + n_total;
    const double *vx = v, *vy = v + n_total, *vz = vy + n_total;
    for (int64_t i = 0; i < n_local; ++i) {
        const int32_t *row = mat + i * width;
        const double xi = x[i], yi = y[i], zi = z[i];
        double fx = 0.0, fy = 0.0, fz = 0.0, e_sum = 0.0;
        const int64_t n = counts[i];
        for (int64_t k = 0; k < n; ++k) {
            const int32_t j = row[k];
            if (j < 0 || j >= n_total)
                return i * width + k;
            const double dx = xi - x[j], dy = yi - y[j], dz = zi - z[j];
            const double rsq = dx * dx + dy * dy + dz * dz;
            if (rsq == 0.0)
                return i * width + k;
            if (!(rsq < cutoff_rsq))
                continue;
            const double dist = sqrt(rsq);
            double s = prm[0] * (prm[2] - dist) / dist;
            if (use_vel) {
                const double vdot = dx * (vx[i] - vx[j]) + dy * (vy[i] - vy[j])
                                    + dz * (vz[i] - vz[j]);
                s = s - prm[1] * vdot / rsq;
            }
            if (!(dist < prm[2]))
                s = 0.0;
            const double gx = s * dx, gy = s * dy, gz = s * dz;
            fx += gx;
            fy += gy;
            fz += gz;
            const int local = j < n_local;
            if (half && local) {
                double *r = react + 3 * j;
                r[0] += gx;
                r[1] += gy;
                r[2] += gz;
            }
            if (energy) {
                const double overlap = fmax(prm[2] - sqrt(rsq), 0.0);
                const double e = 0.5 * prm[0] * overlap * overlap;
                e_sum += (half && local) ? e : 0.5 * e;
            }
        }
        own[3 * i] = fx;
        own[3 * i + 1] = fy;
        own[3 * i + 2] = fz;
        if (energy)
            energy[i] = e_sum;
    }
    return -1;
}

/* The forces of all n_local rows into own, by the row loop of the law. For
 * half lists, react (NULL for full lists) is zeroed, collects the reactions
 * of the local partners in row-major entry order, and is then subtracted:
 * own[k] -= react[k]. Returns -1, or the flat list offset of the first faulty
 * entry (see `lj_rows`); own is then incomplete. The Lennard-Jones loop is
 * specialised on half at compile time: a reaction scatter in its summing pass
 * would keep the compiler from vectorising that pass for full lists too. */
int64_t pair_forces(
    int law, const double *prm, double cutoff_rsq, int use_vel,
    const double *x, const double *v, int64_t n_total,
    const int32_t *mat, int64_t width, const int32_t *counts,
    int64_t n_local, int half,
    double *own, double *react, double *energy)
{
    if (half)
        for (int64_t k = 0; k < 3 * n_local; ++k)
            react[k] = 0.0;
    int64_t bad;
    if (law != LAW_LJ)
        bad = sd_rows(prm, cutoff_rsq, use_vel, x, v, n_total, mat, width, counts,
                      n_local, half, own, react, energy);
    else if (half)
        bad = lj_rows(prm, cutoff_rsq, x, n_total, mat, width, counts,
                      n_local, 1, own, react, energy);
    else
        bad = lj_rows(prm, cutoff_rsq, x, n_total, mat, width, counts,
                      n_local, 0, own, react, energy);
    if (bad < 0 && half)
        for (int64_t k = 0; k < 3 * n_local; ++k)
            own[k] -= react[k];
    return bad;
}

/* Bins particles [0, n) of x into the cells of edge r whose interior starts
 * at lo: dims[d] interior cells per axis plus one shell cell on each side.
 * Per axis, f = floor((x - lo) / r), the arithmetic of the numpy formula; f is
 * tested as a double, so a NaN fails the test, and a particle with f outside
 * [-1, dims[d]] lies more than one shell cell out. Writes the shell-shifted
 * coordinates f + 1 to coords (3, n), the cell id (c0 * g1 + c1) * g2 + c2
 * (g = dims + 2) to cell_of (n,), and the CSR cell list: cell c holds
 * members[start[c] .. start[c + 1]), in index order (a counting sort, so
 * stable). Returns -1, or the first particle more than one shell cell out;
 * the outputs are then incomplete. */
int64_t bin_cells(const double *x, int64_t n, const double *lo, double r, const int64_t *dims,
                  int64_t *coords, int64_t *cell_of, int64_t *start, int32_t *members)
{
    const int64_t g[3] = {dims[0] + 2, dims[1] + 2, dims[2] + 2};
    const int64_t n_cells = g[0] * g[1] * g[2];
    for (int64_t c = 0; c <= n_cells; ++c)
        start[c] = 0;
    for (int64_t i = 0; i < n; ++i) {
        int64_t cell = 0;
        for (int d = 0; d < 3; ++d) {
            const double f = floor((x[d * n + i] - lo[d]) / r);
            if (!(f >= -1.0 && f <= (double)dims[d]))
                return i;
            const int64_t c = (int64_t)f + 1;
            coords[d * n + i] = c;
            cell = cell * g[d] + c;
        }
        cell_of[i] = cell;
        start[cell + 1] += 1;
    }
    for (int64_t c = 0; c < n_cells; ++c)
        start[c + 1] += start[c];
    /* start[c] walks to the end of cell c, which is start[c + 1] before the walk */
    for (int64_t i = 0; i < n; ++i)
        members[start[cell_of[i]]++] = (int32_t)i;
    for (int64_t c = n_cells; c > 0; --c)
        start[c] = start[c - 1];
    start[0] = 0;
    return -1;
}

/* List rows of locals [row0, n_local), in local order, into buf (cap
 * entries). Local i lies in cell cell_of[i]; its candidates are the members
 * of the 27 stencil cells, read as 9 runs: for each (dx, dy) of the stencil,
 * the z-neighbours b - 1, b, b + 1 of the middle cell b are consecutive cell
 * ids, so their members are the one run members[start[b - 1] .. start[b + 2]).
 * soff[s] is the offset of run s's first cell from cell_of[i]. The runs are
 * taken in stencil order (x slowest, z fastest) and each cell's members in
 * index order. A candidate j is kept when the index rule holds (half: j > i,
 * full: j != i) and its squared distance, summed x, y, z in that order from
 * dx = x[j] - x[i], is below rsq_max. Every candidate is written and only a
 * kept one advances the end, so the loop does not branch on the test.
 * counts[i] receives the row length.
 *
 * A row starts only if all its candidates fit behind the entries written so
 * far. Returns the first row not built (n_local when all are); *need is then
 * that row's candidate count, and buf holds the sum of counts[row0..return)
 * entries. */
static inline __attribute__((always_inline)) int64_t list_rows(
    const double *x, int64_t n_total,
    const int32_t *members, const int64_t *start,
    const int64_t *cell_of, const int64_t *soff, double rsq_max, const int half,
    int64_t row0, int64_t n_local, int32_t *buf, int64_t cap,
    int32_t *counts, int64_t *need)
{
    const double *y = x + n_total, *z = y + n_total;
    int64_t e = 0;
    for (int64_t i = row0; i < n_local; ++i) {
        const int64_t c = cell_of[i];
        int64_t total = 0;
        for (int s = 0; s < 9; ++s)
            total += start[c + soff[s] + 3] - start[c + soff[s]];
        if (total > cap - e) {
            *need = total;
            return i;
        }
        const double xi = x[i], yi = y[i], zi = z[i];
        const int64_t row = e;
        for (int s = 0; s < 9; ++s) {
            const int64_t end = start[c + soff[s] + 3];
            for (int64_t k = start[c + soff[s]]; k < end; ++k) {
                const int32_t j = members[k];
                const double dx = x[j] - xi, dy = y[j] - yi, dz = z[j] - zi;
                const double rsq = dx * dx + dy * dy + dz * dz;
                const int keep = (rsq < rsq_max) & (half ? j > i : j != i);
                buf[e] = j;
                e += keep;
            }
        }
        counts[i] = (int32_t)(e - row);
    }
    *need = 0;
    return n_local;
}

/* `list_rows` with the index rule fixed at compile time: one compare per
 * candidate instead of a select between two (3-8 % faster on a 6912-atom LJ
 * rank). */
int64_t build_lists(const double *x, int64_t n_total,
                    const int32_t *members, const int64_t *start,
                    const int64_t *cell_of, const int64_t *soff, double rsq_max, int half,
                    int64_t row0, int64_t n_local, int32_t *buf, int64_t cap,
                    int32_t *counts, int64_t *need)
{
    if (half)
        return list_rows(x, n_total, members, start, cell_of, soff, rsq_max, 1,
                         row0, n_local, buf, cap, counts, need);
    return list_rows(x, n_total, members, start, cell_of, soff, rsq_max, 0,
                     row0, n_local, buf, cap, counts, need);
}

/* Rows [0, n) of the (n, width) list mat: row i receives the next counts[i]
 * entries of flat, in order, then -1 padding to the width. */
void spread_rows(int64_t n, const int32_t *flat, const int32_t *counts, int32_t *mat, int64_t width)
{
    for (int64_t i = 0; i < n; ++i) {
        int32_t *row = mat + i * width;
        int64_t k = 0;
        for (; k < counts[i]; ++k)
            row[k] = *flat++;
        for (; k < width; ++k)
            row[k] = -1;
    }
}
