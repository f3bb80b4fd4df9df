/* The two compiled loops of nanopair: the Verlet-list build behind
 * nanopair.neighbor.build_neighbor_lists, and the pair-force row loop behind
 * nanopair.potential.compute_forces with the serial sum of the half-list
 * reactions it collects. nanopair.kernel compiles this file once per process.
 *
 * The force loop is written once; `pair_forces` calls it with the law as a
 * compile-time constant, so the compiler emits one specialised loop per law.
 * The arithmetic follows the operation order of the laws' `force_scalar` and
 * `pair_energy` in potential.py, and the build forbids fused multiply-adds
 * (-ffp-contract=off), so the sums do not depend on the machine.
 *
 * Arrays are C-contiguous: x and v are coordinate-major (3, n_total), mat is
 * the (n_local, width) list of which row i holds counts[i] real partners,
 * own is (stop - start, 3), back_j is (cap,) and back_f (3, cap), where cap is
 * at least the number of list entries in rows [start, stop).
 */
#include <math.h>
#include <stdint.h>

enum { LAW_LJ = 0, LAW_SD = 1 };

/* Rows [start, stop): own[i - start] = sum of s * delta over the row's
 * in-cutoff partners. With half, every in-cutoff local partner j also goes to
 * (back_j, back_f) in row order, for the caller to subtract. With energy,
 * energy[i - start] = the row's sum of pair energies, at weight 1 for a local
 * partner of a half list and 0.5 otherwise. Returns -1, or the flat list
 * offset i * width + k of the first entry whose partner index is out of range
 * or coincides with i. */
static inline __attribute__((always_inline)) int64_t rows(
    const int law, const double *prm, double cutoff_rsq, int use_vel,
    const double *x, const double *v, int64_t n_total,
    const int32_t *mat, int64_t width, const int32_t *counts,
    int64_t start, int64_t stop, int64_t n_local, int half,
    double *own, int64_t *back_j, double *back_f, int64_t cap,
    int64_t *n_back, double *energy)
{
    const double *y = x + n_total, *z = y + n_total;
    const double *vx = v, *vy = v + n_total, *vz = vy + n_total;
    int64_t nb = 0;
    for (int64_t i = start; i < stop; ++i) {
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
            const int within = rsq < cutoff_rsq;
            double s;
            if (law == LAW_LJ) {
                /* prm: epsilon, sigma^6. About a third of the entries lie
                 * beyond the cutoff, in no order a branch predictor learns, so
                 * s is computed for all and zeroed beyond it. A row sum starts
                 * at +0.0, so it is never -0.0, and adding +-0 leaves it
                 * unchanged: this equals skipping the entry bit for bit. */
                const double sr2 = 1.0 / rsq;
                const double sr6 = sr2 * sr2 * sr2 * prm[1];
                s = 48.0 * sr6 * (sr6 - 0.5) * sr2 * prm[0];
                s *= (double)within;
            } else {
                /* prm: stiffness, damping, diameter; most entries are not in
                 * contact, and those are skipped */
                if (!within)
                    continue;
                const double dist = sqrt(rsq);
                s = prm[0] * (prm[2] - dist) / dist;
                if (use_vel) {
                    const double vdot = dx * (vx[i] - vx[j]) + dy * (vy[i] - vy[j])
                                        + dz * (vz[i] - vz[j]);
                    s = s - prm[1] * vdot / rsq;
                }
                if (!(dist < prm[2]))
                    s = 0.0;
            }
            const double gx = s * dx, gy = s * dy, gz = s * dz;
            fx += gx;
            fy += gy;
            fz += gz;
            const int local = j < n_local;
            if (half) {
                /* written for every entry, kept for an in-cutoff local partner */
                back_j[nb] = j;
                back_f[nb] = gx;
                back_f[cap + nb] = gy;
                back_f[2 * cap + nb] = gz;
                nb += local & within;
            }
            if (energy && within) {
                double e;
                if (law == LAW_LJ) {
                    const double sr6 = prm[1] / (rsq * rsq * rsq);
                    e = 4.0 * prm[0] * (sr6 * sr6 - sr6);
                } else {
                    const double overlap = fmax(prm[2] - sqrt(rsq), 0.0);
                    e = 0.5 * prm[0] * overlap * overlap;
                }
                e_sum += (half && local) ? e : 0.5 * e;
            }
        }
        own[3 * (i - start)] = fx;
        own[3 * (i - start) + 1] = fy;
        own[3 * (i - start) + 2] = fz;
        if (energy)
            energy[i - start] = e_sum;
    }
    *n_back = nb;
    return -1;
}

int64_t pair_forces(
    int law, const double *prm, double cutoff_rsq, int use_vel,
    const double *x, const double *v, int64_t n_total,
    const int32_t *mat, int64_t width, const int32_t *counts,
    int64_t start, int64_t stop, int64_t n_local, int half,
    double *own, int64_t *back_j, double *back_f, int64_t cap,
    int64_t *n_back, double *energy)
{
    if (law == LAW_LJ)
        return rows(LAW_LJ, prm, cutoff_rsq, 0, x, v, n_total, mat, width, counts,
                    start, stop, n_local, half, own, back_j, back_f, cap, n_back, energy);
    return rows(LAW_SD, prm, cutoff_rsq, use_vel, x, v, n_total, mat, width, counts,
                start, stop, n_local, half, own, back_j, back_f, cap, n_back, energy);
}

/* acc[j] += the reaction of each of the n entries (back_j, back_f) in order,
 * the sums np.bincount would form; acc is (n_local, 3). */
void add_reactions(int64_t n, const int64_t *back_j, const double *back_f, int64_t cap,
                   double *acc)
{
    for (int64_t k = 0; k < n; ++k) {
        double *a = acc + 3 * back_j[k];
        a[0] += back_f[k];
        a[1] += back_f[cap + k];
        a[2] += back_f[2 * cap + k];
    }
}

/* List rows of locals [start, n_local), in local order, into buf (cap
 * entries). Local i lies in cell cell_of[i]; its candidates are the
 * occupants of the 27 cells cell_of[i] + soff[s], taken in stencil order and,
 * within a cell, in occupant order (occ is the (n_cells, max_occ) occupant
 * table, cell_counts the occupancy). A candidate j is kept when the index rule
 * holds (half: j > i, full: j != i) and its squared distance, summed x, y, z
 * in that order from dx = x[j] - x[i], is below rsq_max. Every candidate is
 * written and only a kept one advances the end, so the loop does not branch
 * on the test. counts[i] receives the row length.
 *
 * A row starts only if all its candidates fit behind the entries written so
 * far. Returns the first row not built (n_local when all are); *need is then
 * that row's candidate count, and buf holds the sum of counts[start..return)
 * entries. */
static inline __attribute__((always_inline)) int64_t list_rows(
    const double *x, int64_t n_total,
    const int32_t *occ, int64_t max_occ, const int64_t *cell_counts,
    const int64_t *cell_of, const int64_t *soff, double rsq_max, const int half,
    int64_t start, int64_t n_local, int32_t *buf, int64_t cap,
    int32_t *counts, int64_t *need)
{
    const double *y = x + n_total, *z = y + n_total;
    int64_t e = 0;
    for (int64_t i = start; i < n_local; ++i) {
        const int64_t c = cell_of[i];
        int64_t total = 0;
        for (int s = 0; s < 27; ++s)
            total += cell_counts[c + soff[s]];
        if (total > cap - e) {
            *need = total;
            return i;
        }
        const double xi = x[i], yi = y[i], zi = z[i];
        const int64_t row = e;
        for (int s = 0; s < 27; ++s) {
            const int64_t cs = c + soff[s];
            const int32_t *o = occ + cs * max_occ;
            const int64_t n = cell_counts[cs];
            for (int64_t k = 0; k < n; ++k) {
                const int32_t j = o[k];
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
                    const int32_t *occ, int64_t max_occ, const int64_t *cell_counts,
                    const int64_t *cell_of, const int64_t *soff, double rsq_max, int half,
                    int64_t start, int64_t n_local, int32_t *buf, int64_t cap,
                    int32_t *counts, int64_t *need)
{
    if (half)
        return list_rows(x, n_total, occ, max_occ, cell_counts, cell_of, soff, rsq_max, 1,
                         start, n_local, buf, cap, counts, need);
    return list_rows(x, n_total, occ, max_occ, cell_counts, cell_of, soff, rsq_max, 0,
                     start, n_local, buf, cap, counts, need);
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
