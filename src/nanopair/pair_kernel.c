/* The compiled loops of nanopair: the row loops of every particle array
 * (nanopair.layout.ArrayHandle's row methods, the ghost refresh's gather
 * in nanopair.comm.synchronize and its write in
 * nanopair.particles.ParticleStore.set_ghost_positions), the cell binning
 * behind nanopair.neighbor.build_cell_grid (a counting sort of the stored
 * positions into a CSR cell list of cells of edge r or r/2, with a
 * cell-ordered copy of the positions; for half lists the locals and the
 * ghosts go to two ranges over the same cells), the Verlet-list build behind
 * nanopair.neighbor.build_neighbor_lists, which reads each local's stencil
 * (27 cells of edge r, or 125 of edge r/2) as 9 or 25 contiguous z-runs of
 * that list and of the copy (for half lists: the upper half stencil, 5 or
 * 13 runs, over the locals, so each local pair is found once, and the whole
 * stencil over the ghosts), the pair-force row loops behind
 * nanopair.potential.compute_forces, which also sum the half-list
 * reactions and, when asked, prune the rows into an inner list (the entries
 * within r_c + delta, nanopair.neighbor.InnerLists), and the per-step
 * particle loops: the two integrator kicks and the drift (nanopair.driver)
 * and the displacement checks of the Verlet lists, over the locals
 * (nanopair.neighbor.max_displacement_since_rebuild), and of their inner
 * list, over every row (nanopair.potential.compute_forces), and the epoch's
 * particle loops: one pass per stencil round of exchange and of border
 * definition (the face tests of the round's pattern entries against the
 * faces of the rank's slab, exchange's in-place move of its departures,
 * every peer's emitted rows) and the ownership check
 * (nanopair.comm.exchange, nanopair.comm.define_borders), the load
 * histogram (nanopair.comm.balance_slabs), the bounding box
 * (nanopair.comm.RankDomain.grid_box_for), and the appends and the
 * compaction of the store (nanopair.particles.ParticleStore.append_locals,
 * append_ghosts, compact_locals). nanopair.kernel compiles this file once
 * per process and declares every non-static definition from its prototype,
 * so each parameter of an exported loop is a pointer or an int64_t, int or
 * double scalar.
 *
 * Particle arrays are read and written in place, in the layout's buffer,
 * through its index map (see nanopair.layout), and only through it: element
 * (x, y) of an array of w columns lives at
 * buf[(x >> map[0]) * map[1] + y * map[2] + (x & map[3])], w = 3 for the
 * particle arrays. Every particle loop does numpy's operations in numpy's
 * order on each element, so it gives the bits of the numpy formula it
 * replaces.
 *
 * `pair_forces` picks one row loop per law. The Lennard-Jones loop is staged:
 * per block of a row's entries it gathers the in-cutoff partners (and, when
 * pruning, the partners within r_c + delta), evaluates
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
 * The row loops read x and v coordinate-major, (3, n_total), from copies
 * that `pair_forces` takes. The pair list is CSR, like the cell list: row i
 * is partners[start[i] .. start[i + 1]), the rows back to back. react, for
 * half lists, is (n_local, 3).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Offset of row x's first element in a particle array under the index map;
 * its element y lies map[2] * y further on. */
static inline int64_t row_at(const int64_t *map, int64_t x)
{
    return (x >> map[0]) * map[1] + (x & map[3]);
}

enum { LAW_LJ = 0, LAW_SD = 1 };

/* Entries of a list row that the Lennard-Jones loop stages at a time. */
enum { BLOCK = 256 };

/* The list offset of the first entry of partners[from, to) (entries of row
 * i) whose partner index is out of range or coincides with i: the scalar
 * rescan of a block in which a fault was seen, in row order. */
static int64_t first_fault(const double *x, int64_t n_total, const int32_t *partners,
                           int64_t i, int64_t from, int64_t to)
{
    const double *y = x + n_total, *z = y + n_total;
    for (int64_t k = from; k < to; ++k) {
        const int32_t j = partners[k];
        if (j < 0 || j >= n_total)
            return k;
        const double dx = x[i] - x[j], dy = y[i] - y[j], dz = z[i] - z[j];
        if (dx * dx + dy * dy + dz * dz == 0.0)
            return k;
    }
    return -1; /* not reached: the caller saw a fault in the block */
}

/* All local rows under the Lennard-Jones law (prm: epsilon, sigma^6):
 * force row i (through the index map) = the sum of s * delta over the row's
 * in-cutoff partners, in row order. With half, s * delta of every in-cutoff local partner j is also added to
 * react[j], in row-major entry order, for the caller to subtract. With energy,
 * energy[i] = the row's sum of pair energies, at weight 1 for a local partner
 * of a half list and 0.5 otherwise. Returns -1, or the list offset k (an
 * index into partners) of the first entry whose partner index is out of
 * range or coincides with its row's local.
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
 * reaches the caller as a non-finite force.
 *
 * With prune, pass (1) also writes the partners of the entries with rsq <
 * prune_rsq to inner, in row order, by the same compress store (every entry
 * is written, only a kept one advances the end), and inner_start[i + 1] is
 * the end of row i's kept entries; a NaN rsq is kept there too. */
static inline __attribute__((always_inline)) int64_t lj_rows(
    const double *prm, double cutoff_rsq,
    const double *x, int64_t n_total,
    const int32_t *partners, const int64_t *start,
    int64_t n_local, const int half,
    const int64_t *map, double *force, double *react, double *energy,
    const int prune, double prune_rsq, int32_t *inner, int64_t *inner_start)
{
    const double *y = x + n_total, *z = y + n_total;
    const double eps = prm[0], sigma6 = prm[1];
    double dx[BLOCK], dy[BLOCK], dz[BLOCK], rsq[BLOCK], s[BLOCK], pe[BLOCK];
    int32_t jj[BLOCK];
    int64_t o = 0; /* end of the inner list */
    for (int64_t i = 0; i < n_local; ++i) {
        const double xi = x[i], yi = y[i], zi = z[i];
        double fx = 0.0, fy = 0.0, fz = 0.0, e_sum = 0.0;
        const int64_t end = start[i + 1];
        for (int64_t b = start[i]; b < end; b += BLOCK) {
            const int32_t *blk = partners + b;
            const int m = end - b < BLOCK ? (int)(end - b) : BLOCK;
            int32_t lo = blk[0], hi = blk[0];
            for (int k = 1; k < m; ++k) {
                lo = blk[k] < lo ? blk[k] : lo;
                hi = blk[k] > hi ? blk[k] : hi;
            }
            if (lo < 0 || hi >= n_total)
                return first_fault(x, n_total, partners, i, b, b + m);
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
                if (prune) {
                    inner[o] = j;
                    o += !(r2 >= prune_rsq);
                }
            }
            if (coincident)
                return first_fault(x, n_total, partners, i, b, b + m);
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
        double *own = force + row_at(map, i);
        own[0] = fx;
        own[map[2]] = fy;
        own[2 * map[2]] = fz;
        if (energy)
            energy[i] = e_sum;
        if (prune)
            inner_start[i + 1] = o;
    }
    return -1;
}

/* All local rows under the spring-dashpot law (prm: stiffness, damping,
 * diameter), with the outputs and the return value of `lj_rows`, in one
 * scalar loop per row: rows hold a few entries, few of them in contact, and
 * those are the only ones evaluated. The dashpot term reads v only with
 * use_vel. With prune, the entries with rsq < prune_rsq go to the inner list
 * as in `lj_rows`, stored before the cutoff test skips an entry out of
 * contact. */
static inline __attribute__((always_inline)) int64_t sd_rows(
    const double *prm, double cutoff_rsq, int use_vel,
    const double *x, const double *v, int64_t n_total,
    const int32_t *partners, const int64_t *start,
    int64_t n_local, int half,
    const int64_t *map, double *force, double *react, double *energy,
    const int prune, double prune_rsq, int32_t *inner, int64_t *inner_start)
{
    const double *y = x + n_total, *z = y + n_total;
    const double *vx = v, *vy = v + n_total, *vz = vy + n_total;
    int64_t o = 0; /* end of the inner list */
    for (int64_t i = 0; i < n_local; ++i) {
        const double xi = x[i], yi = y[i], zi = z[i];
        double fx = 0.0, fy = 0.0, fz = 0.0, e_sum = 0.0;
        const int64_t end = start[i + 1];
        for (int64_t k = start[i]; k < end; ++k) {
            const int32_t j = partners[k];
            if (j < 0 || j >= n_total)
                return k;
            const double dx = xi - x[j], dy = yi - y[j], dz = zi - z[j];
            const double rsq = dx * dx + dy * dy + dz * dz;
            if (rsq == 0.0)
                return k;
            if (prune) {
                inner[o] = j;
                o += !(rsq >= prune_rsq);
            }
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
        double *own = force + row_at(map, i);
        own[0] = fx;
        own[map[2]] = fy;
        own[2 * map[2]] = fz;
        if (energy)
            energy[i] = e_sum;
        if (prune)
            inner_start[i + 1] = o;
    }
    return -1;
}

/* Rows [0, n) of a particle array, coordinate-major: out[y * n + x] is
 * element (x, y). */
static void transpose_rows(const int64_t *map, const double *buf, int64_t n, double *out)
{
    for (int64_t x = 0; x < n; ++x) {
        const double *row = buf + row_at(map, x);
        out[x] = row[0];
        out[n + x] = row[map[2]];
        out[2 * n + x] = row[2 * map[2]];
    }
}

/* The status codes of `pair_forces` below -1 (nanopair.potential decodes
 * them): row starts that do not split [0, n_entries) into n_local rows, no
 * memory for the copies, and FAULT_NON_FINITE - i for a non-finite force on
 * local i. */
enum { FAULT_STARTS = -2, FAULT_MEMORY = -3, FAULT_NON_FINITE = -4 };

/* The forces of all n_local rows, by the row loop of the law, written into
 * the force rows of the particle arrays (pos, vel, force share the index
 * map). The loops read coordinate-major copies of rows [0, n_total) of pos,
 * and of vel with use_vel. For half lists, react is zeroed, collects the
 * reactions of the local partners in row-major entry order, and is then
 * subtracted: force (k, y) -= react[3 k + y]. Before any row is taken the
 * starts are checked to split partners[0, n_entries) into the n_local rows
 * (start[0] == 0, never decreasing, start[n_local] == n_entries), so no row
 * reads outside partners; every local's force is checked for finiteness
 * after the last row, in row order. Returns -1, or the list offset of the
 * first faulty entry (see `lj_rows`), or a FAULT code; the
 * local force rows are then incomplete. The Lennard-Jones loop is specialised
 * on half at compile time: a reaction scatter in its summing pass would keep
 * the compiler from vectorising that pass for full lists too.
 *
 * With a non-NULL inner the call also prunes: inner (room for n_entries)
 * and inner_start (n_local + 1) receive, as CSR rows, the entries with rsq <
 * prune_rsq in row order, and the positions are copied into ref, (3,
 * n_total), which the loops then read in place of their own copy: ref holds
 * the positions the pruned rows were measured at. Both row loops are
 * specialised on pruning at compile time, so a call that does not prune runs
 * a loop without the inner list's stores. On a return other than -1 the
 * inner rows are incomplete. */
int64_t pair_forces(
    int law, const double *prm, double cutoff_rsq, int use_vel,
    const int64_t *map, const double *pos, const double *vel, double *force, int64_t n_total,
    const int32_t *partners, int64_t n_entries, const int64_t *start,
    int64_t n_local, int half, double *energy,
    double prune_rsq, int32_t *inner, int64_t *inner_start, double *ref)
{
    if (start[0] != 0 || start[n_local] != n_entries)
        return FAULT_STARTS;
    for (int64_t i = 0; i < n_local; ++i)
        if (start[i + 1] < start[i])
            return FAULT_STARTS;
    double *copy = inner ? NULL : malloc(3 * n_total * sizeof(double));
    double *x = inner ? ref : copy;
    double *v = use_vel ? malloc(3 * n_total * sizeof(double)) : NULL;
    /* calloc: the reaction sums start at +0.0 */
    double *react = half ? calloc(3 * n_local, sizeof(double)) : NULL;
    int64_t bad = FAULT_MEMORY;
    if (!x || (use_vel && !v) || (half && !react))
        goto done;
    transpose_rows(map, pos, n_total, x);
    if (use_vel)
        transpose_rows(map, vel, n_total, v);
    if (inner)
        inner_start[0] = 0;
    if (law != LAW_LJ && inner)
        bad = sd_rows(prm, cutoff_rsq, use_vel, x, v, n_total, partners, start,
                      n_local, half, map, force, react, energy, 1, prune_rsq, inner, inner_start);
    else if (law != LAW_LJ)
        bad = sd_rows(prm, cutoff_rsq, use_vel, x, v, n_total, partners, start,
                      n_local, half, map, force, react, energy, 0, 0.0, NULL, NULL);
    else if (half && inner)
        bad = lj_rows(prm, cutoff_rsq, x, n_total, partners, start,
                      n_local, 1, map, force, react, energy, 1, prune_rsq, inner, inner_start);
    else if (half)
        bad = lj_rows(prm, cutoff_rsq, x, n_total, partners, start,
                      n_local, 1, map, force, react, energy, 0, 0.0, NULL, NULL);
    else if (inner)
        bad = lj_rows(prm, cutoff_rsq, x, n_total, partners, start,
                      n_local, 0, map, force, react, energy, 1, prune_rsq, inner, inner_start);
    else
        bad = lj_rows(prm, cutoff_rsq, x, n_total, partners, start,
                      n_local, 0, map, force, react, energy, 0, 0.0, NULL, NULL);
    if (bad != -1)
        goto done;
    for (int64_t i = 0; i < n_local; ++i) {
        double *own = force + row_at(map, i);
        for (int y = 0; y < 3; ++y) {
            if (half)
                own[y * map[2]] -= react[3 * i + y];
            if (!isfinite(own[y * map[2]]) && bad == -1)
                bad = FAULT_NON_FINITE - i;
        }
    }
done:
    free(copy);
    free(v);
    free(react);
    return bad;
}

/* The elements of rows [0, n) of particle arrays under one index map lie in
 * four contiguous spans: the whole clusters below n fill buf[0, whole) with
 * their rows' elements and nothing else (a row-major cluster is one row; a
 * column-major map has no whole cluster below 2^62), and the first n & map[3]
 * lanes of the next cluster hold the rest, one span per column at
 * whole + y * map[2]. `whole` is the end of the first span. */
static inline int64_t whole_clusters(const int64_t *map, int64_t n)
{
    return (n >> map[0]) * map[1];
}

static inline void kick_drift_span(double *restrict v, const double *restrict f,
                                   double *restrict x, int64_t len, double k, double dt)
{
    for (int64_t t = 0; t < len; ++t) {
        v[t] += k * f[t];
        x[t] += dt * v[t];
    }
}

static inline void kick_span(double *restrict v, const double *restrict f, int64_t len, double k)
{
    for (int64_t t = 0; t < len; ++t)
        v[t] += k * f[t];
}

/* The opening half-kick and the drift of rows [0, n): v += k * f, then
 * x += dt * v, element by element (nanopair.driver.initial_integrate). */
void kick_drift(const int64_t *map, int64_t n, double k, double dt,
                double *v, const double *f, double *x)
{
    const int64_t whole = whole_clusters(map, n);
    kick_drift_span(v, f, x, whole, k, dt);
    for (int64_t y = 0; y < 3; ++y) {
        const int64_t o = whole + y * map[2];
        kick_drift_span(v + o, f + o, x + o, n & map[3], k, dt);
    }
}

/* The closing half-kick of rows [0, n): v += k * f
 * (nanopair.driver.final_integrate). */
void kick(const int64_t *map, int64_t n, double k, double *v, const double *f)
{
    const int64_t whole = whole_clusters(map, n);
    kick_span(v, f, whole, k);
    for (int64_t y = 0; y < 3; ++y) {
        const int64_t o = whole + y * map[2];
        kick_span(v + o, f + o, n & map[3], k);
    }
}

/* The largest move of rows [0, n) of x from ref, the coordinate-major
 * (3, n) positions they had: sqrt of the largest (dx * dx + dy * dy) +
 * dz * dz, with d = x - ref. NaN when any squared move is NaN, as numpy's
 * max returns it. */
double max_displacement(const int64_t *map, const double *x, const double *ref, int64_t n)
{
    double best = 0.0;
    int nan = 0;
    for (int64_t i = 0; i < n; ++i) {
        const double *row = x + row_at(map, i);
        const double dx = row[0] - ref[i];
        const double dy = row[map[2]] - ref[n + i];
        const double dz = row[2 * map[2]] - ref[2 * n + i];
        const double rsq = dx * dx + dy * dy + dz * dz;
        best = rsq > best ? rsq : best;
        nan |= rsq != rsq;
    }
    return nan ? NAN : sqrt(best);
}

/* Rows of a particle array of `width` columns under the index map, read
 * row-major: for r < k, out[r * width + y] = element (x_r, y) of x, with
 * x_r = idx[r], or start + r without idx, plus shift[r * width + y] with
 * shift. A missing shift adds nothing (not +0.0, which would turn a -0.0
 * element into +0.0). */
static inline __attribute__((always_inline)) void gather_width(
    const int64_t *map, const double *x, const int64_t width, const int64_t *idx, int64_t start,
    const double *shift, int64_t k, double *out)
{
    for (int64_t r = 0; r < k; ++r) {
        const double *row = x + row_at(map, idx ? idx[r] : start + r);
        for (int64_t y = 0; y < width; ++y)
            out[width * r + y] = shift ? row[y * map[2]] + shift[width * r + y] : row[y * map[2]];
    }
}

/* Rows of a particle array of `width` columns under the index map, written
 * from row-major rows: for r < k, element (x_r, y) of x := rows[r * step + y],
 * with x_r as in `gather_width`. step = width writes k rows; step = 0
 * writes the one row k times (a fill). */
static inline __attribute__((always_inline)) void put_width(
    const int64_t *map, double *x, const int64_t width, const int64_t *idx, int64_t start,
    int64_t k, const double *rows, int64_t step)
{
    for (int64_t r = 0; r < k; ++r) {
        double *row = x + row_at(map, idx ? idx[r] : start + r);
        for (int64_t y = 0; y < width; ++y)
            row[y * map[2]] = rows[step * r + y];
    }
}

/* `gather_width` and `put_width` with the particle arrays' width 3 fixed at
 * compile time: with the width a run-time value the inner loop stays a
 * loop, and a 10k-row ghost gather took twice as long. Every row access of
 * nanopair.layout.ArrayHandle, the ghost refresh's gather
 * (nanopair.comm.synchronize) and its write
 * (nanopair.particles.ParticleStore.set_ghost_positions) go through them. */
void gather_rows(const int64_t *map, const double *x, int64_t width, const int64_t *idx,
                 int64_t start, const double *shift, int64_t k, double *out)
{
    if (width == 3)
        gather_width(map, x, 3, idx, start, shift, k, out);
    else
        gather_width(map, x, width, idx, start, shift, k, out);
}

void put_rows(const int64_t *map, double *x, int64_t width, const int64_t *idx, int64_t start,
              int64_t k, const double *rows, int64_t step)
{
    if (width == 3)
        put_width(map, x, 3, idx, start, k, rows, step);
    else
        put_width(map, x, width, idx, start, k, rows, step);
}

/* Bins particles [0, n) of x (read through the index map) into the cells
 * of edge h whose interior starts at lo: dims[d] interior cells per axis
 * plus a shell of k cells on each side. Per axis, f = floor((x - lo) / h),
 * the arithmetic of the numpy formula; f is tested as a double, so a NaN
 * fails the test, and a particle with f outside [-k, dims[d] + k - 1] lies
 * beyond the shell. Writes the cell id (c0 * g1 + c1) * g2 + c2, with the
 * shell-shifted coordinates c = f + k and g = dims + 2k, to cell_of (n,),
 * and the CSR cell list, a counting sort (so stable) by key: key range c
 * holds members[start[c] .. start[c + 1]), in index order. Without split a
 * particle's key is its cell, so start has n_cells + 1 entries. With split
 * (for half lists) locals [0, n_local) and ghosts are binned apart, as two
 * ranges over the same cells: a local's key is its cell, a ghost's is
 * n_cells + its cell, so start has 2 n_cells + 1 entries, and slot[i]
 * receives the members offset of local i. The scatter that fills members
 * also copies each particle's coordinates to its slot of xs (3, n):
 * xs[d][p] = element (members[p], d) of x, so a loop over a run of members
 * reads the coordinates in order instead of gathering them. *shell_local
 * receives the first local binned into the shell (a cell with some c < k or
 * c >= dims[d] + k), or -1. Returns -1, or the first particle beyond the
 * shell; the outputs are then incomplete. */
static inline __attribute__((always_inline)) int64_t bin_keys(
    const int64_t *map, const double *x, int64_t n, const double *lo, double h, int64_t k,
    const int64_t *dims, int64_t n_local, const int split, int64_t *cell_of,
    int64_t *start, int32_t *members, double *xs, int64_t *slot, int64_t *shell_local)
{
    const int64_t g[3] = {dims[0] + 2 * k, dims[1] + 2 * k, dims[2] + 2 * k};
    const int64_t n_cells = g[0] * g[1] * g[2];
    const int64_t n_keys = split ? 2 * n_cells : n_cells;
    int64_t first_shell = -1;
    for (int64_t c = 0; c <= n_keys; ++c)
        start[c] = 0;
    for (int64_t i = 0; i < n; ++i) {
        const double *row = x + row_at(map, i);
        int64_t cell = 0;
        int inside = 1;
        for (int d = 0; d < 3; ++d) {
            const double f = floor((row[d * map[2]] - lo[d]) / h);
            if (!(f >= (double)-k && f <= (double)(dims[d] + k - 1)))
                return i;
            const int64_t c = (int64_t)f + k;
            inside &= c >= k && c < dims[d] + k;
            cell = cell * g[d] + c;
        }
        if (!inside && i < n_local && first_shell < 0)
            first_shell = i;
        cell_of[i] = cell;
        start[cell + (split && i >= n_local ? n_cells : 0) + 1] += 1;
    }
    *shell_local = first_shell;
    for (int64_t c = 0; c < n_keys; ++c)
        start[c + 1] += start[c];
    /* start[c] walks to the end of key range c, which is start[c + 1] before the walk */
    for (int64_t i = 0; i < n; ++i) {
        const int64_t p = start[cell_of[i] + (split && i >= n_local ? n_cells : 0)]++;
        const double *row = x + row_at(map, i);
        members[p] = (int32_t)i;
        xs[p] = row[0];
        xs[n + p] = row[map[2]];
        xs[2 * n + p] = row[2 * map[2]];
        if (split && i < n_local)
            slot[i] = p;
    }
    for (int64_t c = n_keys; c > 0; --c)
        start[c] = start[c - 1];
    start[0] = 0;
    return -1;
}

/* `bin_keys` with split fixed at compile time, so the single-range loops
 * of full lists carry no key test. */
int64_t bin_cells(const int64_t *map, const double *x, int64_t n, const double *lo, double h, int64_t k,
                  const int64_t *dims, int64_t n_local, int split, int64_t *cell_of,
                  int64_t *start, int32_t *members, double *xs, int64_t *slot, int64_t *shell_local)
{
    if (split)
        return bin_keys(map, x, n, lo, h, k, dims, n_local, 1, cell_of, start, members, xs, slot,
                        shell_local);
    return bin_keys(map, x, n, lo, h, k, dims, n_local, 0, cell_of, start, members, xs, slot,
                    shell_local);
}

/* List rows of locals [row0, n_local), in local order, into buf (cap
 * entries). Local i lies in cell cell_of[i]; its candidates are the members
 * of the cells that the n_runs runs of the table runs (n_runs, 2) name: run
 * s is the runs[s][1] key ranges from cell_of[i] + runs[s][0] on, which are
 * consecutive ids (z-neighbours), so their members are the one slice
 * members[start[b] .. start[b + runs[s][1]]) with b = cell_of[i] + runs[s][0],
 * and their coordinates the same slice of xs, the cell-ordered (3, n_total)
 * copy of the positions x. The runs are taken in table order and each slice
 * in members order. Local i's own coordinates are read from x through the
 * index map and copied to ref[d * n_local + i], the (3, n_local) positions
 * the lists were built at.
 *
 * Full lists read a single-range cell list over the whole stencil and keep
 * a candidate j != i. Half lists read a cell list binned apart (see
 * `bin_cells`) with no index rule: the upper half stencil over the locals,
 * then the whole stencil over the ghosts, whose runs' offsets carry the
 * ghost range's n_cells. Run 0 is the local's own z-run (dz = 0 .. k),
 * which starts behind the local, at slot[i] + 1; the other upper runs are
 * the (0, dy > 0) and the (dx > 0) runs. So a local pair is found once,
 * from the local in the lower cell id, or, in one cell, from the one binned
 * first (the lower index), and a pair of a local and a ghost from the local.
 *
 * A kept candidate lies within r: its squared distance, summed x, y, z in
 * that order from dx = x[j] - x[i], is below rsq_max. Every candidate is
 * written and only a kept one advances the end, so the loop does not
 * branch on the test. row_start[i + 1] receives the row's end,
 * row_start[row0] plus its end in buf, so the rows of successive calls, put
 * back to back, are the CSR list whose row i is entries [row_start[i],
 * row_start[i + 1]).
 *
 * A row starts only if all its candidates fit behind the entries written so
 * far. The runs name disjoint particles, so a row has at most n_total
 * candidates, and the run lengths are summed only when fewer than n_total
 * slots remain (for half lists run 0 counts from start[b], an upper bound).
 * Returns the first row not built (n_local when all are); *need is then
 * that row's candidate count, and buf holds the row_start[return] -
 * row_start[row0] entries of rows [row0, return). */
static inline __attribute__((always_inline)) int64_t list_rows(
    const int64_t *map, const double *x, const double *xs, int64_t n_total,
    const int32_t *members, const int64_t *start, const int64_t *cell_of, const int64_t *slot,
    const int64_t *runs, int64_t n_runs, double rsq_max, const int half,
    int64_t row0, int64_t n_local, int32_t *buf, int64_t cap,
    int64_t *row_start, int64_t *need, double *ref)
{
    const double *ys = xs + n_total, *zs = ys + n_total;
    const int64_t base = row_start[row0];
    int64_t e = 0;
    for (int64_t i = row0; i < n_local; ++i) {
        const int64_t c = cell_of[i];
        if (cap - e < n_total) {
            int64_t total = 0;
            for (int64_t s = 0; s < n_runs; ++s)
                total += start[c + runs[2 * s] + runs[2 * s + 1]] - start[c + runs[2 * s]];
            if (total > cap - e) {
                *need = total;
                return i;
            }
        }
        const double *row = x + row_at(map, i);
        const double xi = row[0], yi = row[map[2]], zi = row[2 * map[2]];
        ref[i] = xi;
        ref[n_local + i] = yi;
        ref[2 * n_local + i] = zi;
        for (int64_t s = 0; s < n_runs; ++s) {
            const int64_t b = c + runs[2 * s];
            const int64_t end = start[b + runs[2 * s + 1]];
            for (int64_t k = half && s == 0 ? slot[i] + 1 : start[b]; k < end; ++k) {
                const int32_t j = members[k];
                const double dx = xs[k] - xi, dy = ys[k] - yi, dz = zs[k] - zi;
                const double rsq = dx * dx + dy * dy + dz * dz;
                const int keep = half ? rsq < rsq_max : (rsq < rsq_max) & (j != i);
                buf[e] = j;
                e += keep;
            }
        }
        row_start[i + 1] = base + e;
    }
    *need = 0;
    return n_local;
}

/* `list_rows` with the list kind fixed at compile time: the full-list loop
 * keeps its one compare per candidate for the index rule, the half-list
 * loop has none. slot is read only for half lists. */
int64_t build_lists(const int64_t *map, const double *x, const double *xs, int64_t n_total,
                    const int32_t *members, const int64_t *start, const int64_t *cell_of,
                    const int64_t *slot, const int64_t *runs, int64_t n_runs, double rsq_max, int half,
                    int64_t row0, int64_t n_local, int32_t *buf, int64_t cap,
                    int64_t *row_start, int64_t *need, double *ref)
{
    if (half)
        return list_rows(map, x, xs, n_total, members, start, cell_of, slot, runs, n_runs, rsq_max, 1,
                         row0, n_local, buf, cap, row_start, need, ref);
    return list_rows(map, x, xs, n_total, members, start, cell_of, slot, runs, n_runs, rsq_max, 0,
                     row0, n_local, buf, cap, row_start, need, ref);
}

/* Whether coordinate c passes a face test against bound b: from above on
 * side +1 (c >= b with ge, c > b without), from below on side -1 (c < b).
 * A NaN passes none. */
static inline int face_test(double c, double b, int64_t side, int ge)
{
    return side > 0 ? (ge ? c >= b : c > b) : c < b;
}

/* The pattern entries of a stencil round: the upper and the lower face of
 * its axis (nanopair.comm.CommPattern rejects a round of any other size). */
enum { ROUND_ENTRIES = 2 };

/* The rows of [0, n) that each of a round's two pattern entries picks:
 * entry e tests coordinate axes[2 e] of a row from the side axes[2 e + 1]
 * (see `face_test`) against its face of the slab (lo x, y, z, then hi x, y,
 * z: the upper face on side +1, the lower on side -1) moved `pad` inward; a
 * pad of 0 leaves the face as it is, up to the sign of a zero, which no
 * test sees. Entry e's rows go to idx[e * n ...], in increasing row order,
 * and their number to picked[e]. Both entries are taken in one pass over
 * the rows, so a round of the face stencil (one entry per face of its axis)
 * reads every row once: every row index is written and only a picked one
 * advances its entry's count, so the loop does not branch on the tests. */
static inline __attribute__((always_inline)) void select_pass(
    const int64_t *map, const double *x, int64_t n, const int64_t *axes, const double *slab, double pad,
    int ge, int64_t *restrict idx, int64_t *restrict picked)
{
    const int64_t d0 = axes[0] * map[2], s0 = axes[1], d1 = axes[2] * map[2], s1 = axes[3];
    const double b0 = s0 > 0 ? slab[3 + axes[0]] - pad : slab[axes[0]] + pad;
    const double b1 = s1 > 0 ? slab[3 + axes[2]] - pad : slab[axes[2]] + pad;
    int64_t *restrict out0 = idx, *restrict out1 = idx + n;
    int64_t k0 = 0, k1 = 0;
    for (int64_t i = 0; i < n; ++i) {
        const double *row = x + row_at(map, i);
        out0[k0] = i;
        k0 += face_test(row[d0], b0, s0, ge);
        out1[k1] = i;
        k1 += face_test(row[d1], b1, s1, ge);
    }
    picked[0] = k0;
    picked[1] = k1;
}

/* Exchange's move of `row` of x through a face, in place: element y +=
 * shift[y], which is 0, or +-(hi[y] - lo[y]) across a periodic face of the
 * box (lo x, y, z, then hi x, y, z). Rounding can put the sum on a face that
 * no rank owns. A row that left through the lower face (shift[y] > 0) and
 * whose sum reaches hi lay so little below lo that its image is lo: it moves
 * to lo and stays with this rank, which owns lo. A row that left through the
 * upper face and whose sum falls below lo comes up to lo. Returns whether
 * the row stays. */
static int move_row(const int64_t *map, double *row, const double *shift, const double *box)
{
    int stays = 0;
    for (int y = 0; y < 3; ++y) {
        const double lo = box[y], s = shift[y], w = row[y * map[2]] + s;
        const int home = s > 0.0 && w >= box[3 + y];
        row[y * map[2]] = home || (s < 0.0 && w < lo) ? lo : w;
        stays |= home;
    }
    return stays;
}

/* One stencil round of exchange (nanopair.comm.exchange) over the locals
 * [0, n) of x and v. A round's entry e stands for a face of the slab (the
 * rank's ownership box as six doubles, lo then hi): it picks the rows
 * strictly outside the slab there (`select_pass` with ge, against the face
 * itself) as the round starts, and sends them to peer group group[e]; the
 * groups number the entries' peers in order of first appearance, and group
 * `own` is this rank (-1: none). Returns the rows that the remote entries
 * picked, an upper bound of the departures; if that exceeds cap, nothing
 * else is done, and the caller grows out and calls again. Otherwise every picked
 * row moves through its face in place, entry by entry in entry order
 * (`move_row` with shifts[3 e ...]), keep[i] (numpy's bool) is set to 0 for
 * a row that departs to a remote peer, else 1, and the departures are
 * written as 6-wide rows (position as moved, velocity) to out, grouped by
 * peer group, entry by entry within a group and in row order within an
 * entry; counts[g] receives group g's rows (0 for own). idx (2 n) and
 * picked (2) are work arrays. */
int64_t exchange_round(const int64_t *map, double *x, const double *v, int64_t n, const double *slab,
                       const int64_t *axes, const double *shifts,
                       const int64_t *group, int64_t n_groups, int64_t own, int64_t *picked,
                       int64_t *counts, const double *box, int64_t *idx, uint8_t *keep, int64_t cap,
                       double *out)
{
    select_pass(map, x, n, axes, slab, 0.0, 1, idx, picked);
    int64_t need = 0;
    for (int64_t e = 0; e < ROUND_ENTRIES; ++e)
        need += group[e] == own ? 0 : picked[e];
    if (need > cap)
        return need;
    for (int64_t i = 0; i < n; ++i)
        keep[i] = 1;
    for (int64_t e = 0; e < ROUND_ENTRIES; ++e) {
        int64_t *rows = idx + e * n, moved = 0;
        for (int64_t r = 0; r < picked[e]; ++r) {
            if (!move_row(map, x + row_at(map, rows[r]), shifts + 3 * e, box))
                rows[moved++] = rows[r];
        }
        picked[e] = moved;
        if (group[e] != own) {
            for (int64_t r = 0; r < moved; ++r)
                keep[rows[r]] = 0;
        }
    }
    int64_t m = 0;
    for (int64_t g = 0; g < n_groups; ++g) {
        const int64_t first = m;
        for (int64_t e = 0; e < ROUND_ENTRIES && g != own; ++e) {
            if (group[e] != g)
                continue;
            for (int64_t r = 0; r < picked[e]; ++r, ++m) {
                const int64_t o = row_at(map, idx[e * n + r]);
                for (int y = 0; y < 3; ++y) {
                    out[6 * m + y] = x[o + y * map[2]];
                    out[6 * m + 3 + y] = v[o + y * map[2]];
                }
            }
        }
        counts[g] = m - first;
    }
    return need;
}

/* One stencil round of border definition (nanopair.comm.define_borders)
 * over rows [0, n) of x: entry e picks the rows within `spacing` of its
 * face of the slab (`select_pass` without ge, against face - spacing on
 * side +1 and face + spacing on side -1, each one rounded double operation)
 * as the round starts, for peer group group[e] (see `exchange_round`).
 * Returns the rows picked, k; if k exceeds cap, nothing else is done, and
 * the caller grows the outputs and calls again. Otherwise, grouped by peer group, entry by entry
 * within a group and in row order within an entry, row m of the round
 * gets src[m] = its row index, out[3 m + y] = its element y plus
 * shifts[3 e + y] and diff[3 m + y] = that sum less the element, the shift
 * that the ghost refresh replays; counts[g] receives group g's rows. idx
 * (2 n) and picked (2) are work arrays. */
int64_t border_round(const int64_t *map, const double *x, int64_t n, const double *slab, double spacing,
                     const int64_t *axes, const double *shifts,
                     const int64_t *group, int64_t n_groups, int64_t *picked, int64_t *counts,
                     int64_t *idx, int64_t cap, int64_t *src, double *out, double *diff)
{
    select_pass(map, x, n, axes, slab, spacing, 0, idx, picked);
    int64_t k = 0;
    for (int64_t e = 0; e < ROUND_ENTRIES; ++e)
        k += picked[e];
    if (k > cap)
        return k;
    int64_t m = 0;
    for (int64_t g = 0; g < n_groups; ++g) {
        const int64_t first = m;
        for (int64_t e = 0; e < ROUND_ENTRIES; ++e) {
            if (group[e] != g)
                continue;
            const double *shift = shifts + 3 * e;
            for (int64_t r = 0; r < picked[e]; ++r, ++m) {
                const int64_t i = idx[e * n + r], o = row_at(map, i);
                src[m] = i;
                for (int y = 0; y < 3; ++y) {
                    const double c = x[o + y * map[2]], emitted = c + shift[y];
                    out[3 * m + y] = emitted;
                    diff[3 * m + y] = emitted - c;
                }
            }
        }
        counts[g] = m - first;
    }
    return k;
}

/* Appends k rows at row `start` of three particle arrays under one index
 * map: x from the rows pos[r * pos_step ...], v from vel[r * vel_step ...]
 * or zeros without vel, f zeros. A step is the distance between rows in
 * doubles, so the two halves of 6-wide exchange rows are read in place. */
void append_rows(const int64_t *map, double *x, double *v, double *f, int64_t start, int64_t k,
                 const double *pos, int64_t pos_step, const double *vel, int64_t vel_step)
{
    static const double zero[3] = {0.0, 0.0, 0.0};
    put_width(map, x, 3, NULL, start, k, pos, pos_step);
    if (vel)
        put_width(map, v, 3, NULL, start, k, vel, vel_step);
    else
        put_width(map, v, 3, NULL, start, k, zero, 0);
    put_width(map, f, 3, NULL, start, k, zero, 0);
}

/* The first of rows [0, n) that lies outside the half-open slab (6
 * doubles: lo x, y, z, then hi x, y, z), or -1. A NaN coordinate lies
 * outside. */
int64_t first_outside(const int64_t *map, const double *x, int64_t n, const double *slab)
{
    for (int64_t i = 0; i < n; ++i) {
        const double *row = x + row_at(map, i);
        int inside = 1;
        for (int y = 0; y < 3; ++y) {
            const double c = row[y * map[2]];
            inside &= c >= slab[y] && c < slab[3 + y];
        }
        if (!inside)
            return i;
    }
    return -1;
}

/* lo[y] and hi[y]: the smallest and the largest element (x, y) over rows
 * [0, n), n > 0, or NaN for an axis that holds a NaN, as numpy's min and
 * max give. */
void bounding_box(const int64_t *map, const double *x, int64_t n, double *lo, double *hi)
{
    const double *first = x + row_at(map, 0);
    double l0 = first[0], l1 = first[map[2]], l2 = first[2 * map[2]];
    double h0 = l0, h1 = l1, h2 = l2;
    int nan = 0;
    for (int64_t i = 0; i < n; ++i) {
        const double *row = x + row_at(map, i);
        const double c0 = row[0], c1 = row[map[2]], c2 = row[2 * map[2]];
        l0 = c0 < l0 ? c0 : l0;
        l1 = c1 < l1 ? c1 : l1;
        l2 = c2 < l2 ? c2 : l2;
        h0 = c0 > h0 ? c0 : h0;
        h1 = c1 > h1 ? c1 : h1;
        h2 = c2 > h2 ? c2 : h2;
        nan |= (c0 != c0) | (c1 != c1) << 1 | (c2 != c2) << 2;
    }
    lo[0] = nan & 1 ? NAN : l0;
    lo[1] = nan & 2 ? NAN : l1;
    lo[2] = nan & 4 ? NAN : l2;
    hi[0] = nan & 1 ? NAN : h0;
    hi[1] = nan & 2 ? NAN : h1;
    hi[2] = nan & 4 ? NAN : h2;
}

/* c wrapped into [lo, hi) by whole multiples of len = hi - lo, with the
 * operations of numpy's formula: a coordinate inside passes untouched;
 * any other becomes lo + mod(c - lo, len), where numpy's mod is fmod plus
 * len when the two signs differ (and +0.0 for a zero), then comes down by
 * len where rounding lands it on hi and up to lo where it falls below. NaN
 * stays NaN. */
static inline double wrap_into(double c, double lo, double hi, double len)
{
    if (c >= lo && c < hi)
        return c;
    double m = fmod(c - lo, len);
    if (m != 0.0) {
        if ((m < 0.0) != (len < 0.0))
            m += len;
    } else {
        m = copysign(0.0, len);
    }
    double w = lo + m;
    if (w >= hi)
        w = w - len;
    if (w < lo)
        w = lo;
    return w;
}

/* The load histogram of rows [0, n): per axis y, hist[y * bins + b] (zeroed
 * here) counts the rows whose coordinate, wrapped into the box
 * [box[y], box[3 + y]) by `wrap_into`, falls into bin b = floor((w - lo) /
 * (hi - lo) * bins). The bin is clamped to [0, bins - 1] while it is a
 * double, so NaN goes to bin 0 and no out-of-range value is cast. */
void load_histogram(const int64_t *map, const double *x, int64_t n, const double *box,
                    int64_t bins, double *hist)
{
    const double lo[3] = {box[0], box[1], box[2]}, hi[3] = {box[3], box[4], box[5]};
    const double len[3] = {hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]};
    const double top = (double)(bins - 1);
    for (int64_t b = 0; b < 3 * bins; ++b)
        hist[b] = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        const double *row = x + row_at(map, i);
        for (int y = 0; y < 3; ++y) {
            const double w = wrap_into(row[y * map[2]], lo[y], hi[y], len[y]);
            const double f = (w - lo[y]) / len[y] * (double)bins;
            /* the clamped f is not negative, so truncation is floor */
            hist[y * bins + (int64_t)(f >= 0.0 ? (f <= top ? f : top) : 0.0)] += 1.0;
        }
    }
}

/* Drops the rows [0, n) of three particle arrays under one index map whose
 * keep byte is 0 (numpy's bool: one byte, 0 or 1): each kept row moves up
 * behind the kept rows before it, in order, in all three arrays, and rows
 * before the first dropped one are not written. Returns the number kept. */
int64_t compact_rows(const int64_t *map, double *x, double *v, double *f, int64_t n,
                     const uint8_t *keep)
{
    int64_t w = 0;
    for (int64_t i = 0; i < n; ++i) {
        if (!keep[i])
            continue;
        if (w != i) {
            const int64_t to = row_at(map, w), from = row_at(map, i);
            for (int y = 0; y < 3; ++y) {
                const int64_t o = y * map[2];
                x[to + o] = x[from + o];
                v[to + o] = v[from + o];
                f[to + o] = f[from + o];
            }
        }
        ++w;
    }
    return w;
}
