/*
 * Native search kernel: SABRE's per-compile work on flat tables, in C.
 *
 * Three entry points, loaded with ctypes by repro/core/native.py:
 *  - sabre_lower builds every per-IR table the other two read (full and
 *    folded successor CSR, counts, roots, depth tails) from one flat
 *    operand array, per-gate arities and directive flags, as
 *    FlatDag's Python views and FlatDag.folded (repro/circuits/
 *    flatdag.py) build them;
 *  - sabre_search runs one SABRE search-mode traversal per call: a
 *    line-for-line port of SabreRouter._search (repro/core/router.py)
 *    with VectorBlock.score_scalar (repro/core/scoring.py) and
 *    FrontierState.extended_nodes inlined;
 *  - sabre_replay walks a recorded traversal over the unfolded DAG as
 *    SabreRouter._replay does and writes the emission order: node ids,
 *    with a SABRE_SWAP marker where each SWAP goes.
 * The Python code stays the oracle: for equal inputs both make the same
 * SWAP decisions, draw the same tie-breaks from the same MT19937
 * stream, and leave the same layout, depth, SWAP record and gate order.
 *
 * Exactness rests on three rules:
 *  - scores are IEEE doubles combined in score_scalar's order; the file
 *    must be compiled without FMA contraction (-ffp-contract=off) and
 *    without -ffast-math;
 *  - a tie-break is CPython's Random.choice: _randbelow(n) draws
 *    getrandbits(n.bit_length()), i.e. one MT19937 word shifted right,
 *    and redraws while the result is >= n;
 *  - the escape hatch walks CouplingGraph.shortest_path's BFS (ascending
 *    neighbours, first discovery wins).
 *
 * The kernel keeps no global state: all working memory is allocated
 * per call, and the caller's layout and RNG state are written back only
 * when the call succeeds.  Plain C99, no Python headers.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SCORE_EPSILON 1e-9

/* Return codes (mirrored in repro/core/native.py). */
#define SABRE_OK 0
#define SABRE_SWAPS_FULL 1
#define SABRE_ESCAPES_FULL 2
#define SABRE_NO_WINNER 3
#define SABRE_NO_MEMORY 4
#define SABRE_BAD_INPUT 5

/* The SWAP marker of sabre_replay's emission order. */
#define SABRE_SWAP (-1)

/* Device tables: built once per router. */
typedef struct {
    int n;                      /* physical qubits */
    const double *dist;         /* n * n, row-major, symmetric */
    const int *nb_off;          /* n + 1 offsets into nb */
    const int *nb;              /* neighbours of each qubit, ascending */
    const unsigned char *adj;   /* n * n coupling flags */
    double spread;              /* see repro.core.scoring.device_spread */
} sabre_device;

/* Heuristic knobs of one traversal (HeuristicConfig + stall limit). */
typedef struct {
    int basic;
    int uses_lookahead;
    int uses_decay;
    int ext_size;
    int decay_interval;
    int stall_limit;
    double weight;
    double penalty;
    double decay_delta;
} sabre_config;

/* Per-IR tables: filled once per FlatDag by sabre_lower, read-only
 * after.  The caller allocates every array (sizes in brackets: N nodes,
 * M operands, Q logical qubits) and sets num_nodes, num_qubits and pair;
 * sabre_lower fills the rest. */
typedef struct {
    int num_nodes;
    int num_qubits;             /* logical qubits of the circuit */
    int num_two;                /* two-qubit (routable) gates */
    int *qubit_a;               /* [N] operands of two-qubit gates, else -1 */
    int *qubit_b;               /* [N] */
    unsigned char *two_qubit;   /* [N] */
    int *indegree;              /* [N] full-DAG predecessor counts */
    int *uroots;                /* [N] full-DAG roots, ascending */
    int num_uroots;
    int *succ_off;              /* [N+1] full-DAG successors, ascending */
    int *succ;                  /* [M] */
    int *fsucc_off;             /* [N+1] folded successors (execution) */
    int *fsucc;                 /* [M] */
    int *fill;                  /* [N] folded initial remaining counts */
    int *roots;                 /* [N] folded roots, ascending */
    int num_roots;
    int *pair_off;              /* [N+1] operands of every node */
    const int *pair;            /* [M] (the caller's operand array) */
    int *tail;                  /* [M] folded depth tails, one per operand */
    int *root_depth;            /* [Q] per logical qubit */
} sabre_ir;

/* ------------------------------------------------------------------ */
/* MT19937, as CPython's _randommodule.c runs it.                      */

#define MT_N 624
#define MT_M 397

static uint32_t genrand_uint32(uint32_t *mt, int *mti)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (*mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        *mti = 0;
    }
    y = mt[(*mti)++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Random._randbelow(n) for 1 < n < 2**32. */
static int randbelow(uint32_t *mt, int *mti, int n)
{
    int k = 0;
    uint32_t r;
    while ((n >> k) != 0)
        k++;                    /* k = n.bit_length() */
    do {
        r = genrand_uint32(mt, mti) >> (32 - k);
    } while (r >= (uint32_t)n);
    return (int)r;
}

/* ------------------------------------------------------------------ */

typedef struct {
    int *data;
    int len;
    int cap;
} int_stack;

static int stack_push(int_stack *s, int value)
{
    if (s->len == s->cap) {
        int cap = s->cap * 2 + 16;
        int *data = realloc(s->data, (size_t)cap * sizeof(int));
        if (data == NULL)
            return -1;
        s->data = data;
        s->cap = cap;
    }
    s->data[s->len++] = value;
    return 0;
}

static int cmp_int(const void *x, const void *y)
{
    int a = *(const int *)x;
    int b = *(const int *)y;
    return (a > b) - (a < b);
}

/* Insert into / delete from an ascending array. */
static void sorted_insert(int *a, int *len, int value)
{
    int lo = 0, hi = *len;
    while (lo < hi) {
        int mid = (lo + hi) >> 1;
        if (a[mid] < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(a + lo + 1, a + lo, (size_t)(*len - lo) * sizeof(int));
    a[lo] = value;
    (*len)++;
}

static void sorted_remove(int *a, int *len, int value)
{
    int lo = 0, hi = *len;
    while (lo < hi) {
        int mid = (lo + hi) >> 1;
        if (a[mid] < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(a + lo, a + lo + 1, (size_t)(*len - lo - 1) * sizeof(int));
    (*len)--;
}

/* One traversal's mutable state. */
typedef struct {
    const sabre_device *dev;
    const sabre_ir *ir;
    int n;
    int *l2p, *p2l;
    int *wire;
    int *fgate;
    int *front;
    int nfront;
    int_stack work;
    int *swaps;
    int swap_cap;
    int nswaps;
} traversal;

/* SabreRouter._search's apply_swap: record, depth, layout, worklist. */
static int apply_swap(traversal *t, int qa, int qb)
{
    int pa, pb, wa, wb, end, g1, g2;
    if (t->nswaps >= t->swap_cap)
        return SABRE_SWAPS_FULL;
    t->swaps[2 * t->nswaps] = qa;
    t->swaps[2 * t->nswaps + 1] = qb;
    t->nswaps++;
    pa = t->l2p[qa];
    pb = t->l2p[qb];
    wa = t->wire[pa];
    wb = t->wire[pb];
    end = (wa >= wb ? wa : wb) + 1;
    t->wire[pa] = end;
    t->wire[pb] = end;
    t->l2p[qa] = pb;
    t->l2p[qb] = pa;
    t->p2l[pa] = qb;
    t->p2l[pb] = qa;
    g1 = t->fgate[qa];
    if (g1 >= 0 && stack_push(&t->work, g1))
        return SABRE_NO_MEMORY;
    g2 = t->fgate[qb];
    if (g2 >= 0 && g2 != g1 && stack_push(&t->work, g2))
        return SABRE_NO_MEMORY;
    return SABRE_OK;
}

/* SabreRouter._escape: force-route the closest front gate along a BFS
 * shortest path.  parent is n ints of scratch, queue n ints. */
static int escape(traversal *t, int *parent, int *queue)
{
    const sabre_device *dev = t->dev;
    const double *dist = dev->dist;
    int n = t->n;
    int target = t->front[0], i, a, src, dst, head = 0, tail = 0, found = 0;
    double best = dist[t->l2p[t->ir->qubit_a[target]] * n
                       + t->l2p[t->ir->qubit_b[target]]];
    for (i = 1; i < t->nfront; i++) {
        int g = t->front[i];
        double d = dist[t->l2p[t->ir->qubit_a[g]] * n + t->l2p[t->ir->qubit_b[g]]];
        if (d < best) {
            best = d;
            target = g;
        }
    }
    a = t->ir->qubit_a[target];
    src = t->l2p[a];
    dst = t->l2p[t->ir->qubit_b[target]];
    for (i = 0; i < n; i++)
        parent[i] = -1;
    parent[src] = src;
    queue[tail++] = src;
    while (head < tail && !found) {
        int q = queue[head++], k;
        for (k = dev->nb_off[q]; k < dev->nb_off[q + 1]; k++) {
            int nb = dev->nb[k];
            if (parent[nb] < 0) {
                parent[nb] = q;
                if (nb == dst) {
                    found = 1;
                    break;
                }
                queue[tail++] = nb;
            }
        }
    }
    if (!found)
        return SABRE_NO_WINNER;
    /* The path src -> dst reversed into queue; its inner hops are
     * queue[len-2] down to queue[1]. */
    tail = 0;
    for (i = dst; i != src; i = parent[i])
        queue[tail++] = i;
    queue[tail++] = src;
    for (i = tail - 2; i >= 1; i--) {
        int rc = apply_swap(t, a, t->p2l[queue[i]]);
        if (rc)
            return rc;
    }
    return SABRE_OK;
}

int sabre_search(const sabre_device *dev, const sabre_config *cfg,
                 const sabre_ir *ir, int *l2p_io, int *p2l_io,
                 uint32_t *mt_io, int *swaps, int swap_cap, int *escapes,
                 int escape_cap, int *out)
{
    const int n = dev->n;
    const int nodes = ir->num_nodes;
    const double *dist = dev->dist;
    const unsigned char *adj = dev->adj;
    const int *qubit_a = ir->qubit_a;
    const int *qubit_b = ir->qubit_b;
    const unsigned char *two_qubit = ir->two_qubit;
    const int ext_cap = cfg->ext_size < nodes ? cfg->ext_size : nodes;
    const int cand_cap = dev->nb_off[n];
    const int lookahead = cfg->uses_lookahead && !cfg->basic && ext_cap > 0;
    traversal t;
    uint32_t mt[MT_N];
    int mti;
    int *remaining = NULL, *virt = NULL, *stamps = NULL, *queue = NULL;
    int *ready = NULL, *ints = NULL, *cands = NULL, *best = NULL;
    int *ext = NULL, *pe = NULL;
    double *decay = NULL;
    int *pf, *pe_off, *pe_cnt, *touched, *scratch;
    int ntouched = 0, ne = 0, nready = 0, rh = 0, nesc = 0;
    int epoch = 0, stall = 0, decay_steps = 0, front_dirty = 1;
    int rc = SABRE_OK, i, k, q;

    memset(&t, 0, sizeof t);
    t.dev = dev;
    t.ir = ir;
    t.n = n;
    t.swaps = swaps;
    t.swap_cap = swap_cap;

    remaining = malloc((size_t)nodes * sizeof(int) + 1);
    virt = malloc((size_t)nodes * sizeof(int) + 1);
    stamps = calloc((size_t)nodes + 1, sizeof(int));
    queue = malloc(((size_t)nodes + (size_t)n + 1) * sizeof(int));
    ready = malloc((size_t)nodes * sizeof(int) + 1);
    /* l2p, p2l, wire, fgate, front, pf, pe_off, pe_cnt, touched,
     * and two n-sized scratch rows for the escape BFS */
    ints = malloc((size_t)n * 11 * sizeof(int) + 1);
    cands = malloc((size_t)cand_cap * 2 * sizeof(int) + 1);
    best = malloc((size_t)cand_cap * 2 * sizeof(int) + 1);
    ext = malloc((size_t)ext_cap * sizeof(int) + 1);
    pe = malloc((size_t)ext_cap * 2 * sizeof(int) + 1);
    decay = malloc((size_t)n * sizeof(double) + 1);
    if (!remaining || !virt || !stamps || !queue || !ready || !ints
        || !cands || !best || !ext || !pe || !decay) {
        rc = SABRE_NO_MEMORY;
        goto done;
    }
    t.l2p = ints;
    t.p2l = ints + n;
    t.wire = ints + 2 * n;
    t.fgate = ints + 3 * n;
    t.front = ints + 4 * n;
    pf = ints + 5 * n;
    pe_off = ints + 6 * n;
    pe_cnt = ints + 7 * n;
    touched = ints + 8 * n;
    scratch = ints + 9 * n;     /* 2 * n ints */

    memcpy(t.l2p, l2p_io, (size_t)n * sizeof(int));
    memcpy(t.p2l, p2l_io, (size_t)n * sizeof(int));
    memcpy(mt, mt_io, sizeof mt);
    mti = (int)mt_io[MT_N];
    memcpy(remaining, ir->fill, (size_t)nodes * sizeof(int));
    for (q = 0; q < n; q++) {
        t.wire[q] = 0;
        t.fgate[q] = -1;
        pf[q] = -1;
        pe_cnt[q] = 0;
        decay[q] = 1.0;
    }
    for (q = 0; q < ir->num_qubits; q++)
        t.wire[t.l2p[q]] += ir->root_depth[q];
    for (i = 0; i < ir->num_roots; i++) {
        int r = ir->roots[i];
        if (two_qubit[r]) {
            t.front[t.nfront++] = r;
            t.fgate[qubit_a[r]] = r;
            t.fgate[qubit_b[r]] = r;
            if (stack_push(&t.work, r)) {
                rc = SABRE_NO_MEMORY;
                goto done;
            }
        } else {
            ready[nready++] = r;
        }
    }

    for (;;) {
        int ran = 0, nbest, choice, qa, qb;
        /* The ready cascade: worklist of two-qubit gates, then barriers. */
        for (;;) {
            while (t.work.len) {
                int index = t.work.data[--t.work.len];
                int pa, pb, wa, wb, end, off;
                qa = qubit_a[index];
                qb = qubit_b[index];
                pa = t.l2p[qa];
                pb = t.l2p[qb];
                if (!adj[pa * n + pb]) {
                    if (t.fgate[qa] != index) {
                        sorted_insert(t.front, &t.nfront, index);
                        t.fgate[qa] = index;
                        t.fgate[qb] = index;
                    }
                    continue;
                }
                if (t.fgate[qa] == index) {
                    sorted_remove(t.front, &t.nfront, index);
                    t.fgate[qa] = -1;
                    t.fgate[qb] = -1;
                }
                ran++;
                wa = t.wire[pa];
                wb = t.wire[pb];
                end = (wa >= wb ? wa : wb) + 1;
                off = ir->pair_off[index];
                t.wire[pa] = end + ir->tail[off];
                t.wire[pb] = end + ir->tail[off + 1];
                for (k = ir->fsucc_off[index]; k < ir->fsucc_off[index + 1]; k++) {
                    int s = ir->fsucc[k];
                    if (--remaining[s] == 0) {
                        if (two_qubit[s]) {
                            if (stack_push(&t.work, s)) {
                                rc = SABRE_NO_MEMORY;
                                goto done;
                            }
                        } else {
                            ready[nready++] = s;
                        }
                    }
                }
            }
            if (rh == nready)
                break;
            /* Barriers add their operands' tails; the two-qubit gates
             * they release enter the front and the worklist. */
            while (rh < nready) {
                int index = ready[rh++];
                for (k = ir->pair_off[index]; k < ir->pair_off[index + 1]; k++) {
                    int tl = ir->tail[k];
                    if (tl)
                        t.wire[t.l2p[ir->pair[k]]] += tl;
                }
                for (k = ir->fsucc_off[index]; k < ir->fsucc_off[index + 1]; k++) {
                    int s = ir->fsucc[k];
                    if (--remaining[s] == 0) {
                        if (two_qubit[s]) {
                            sorted_insert(t.front, &t.nfront, s);
                            t.fgate[qubit_a[s]] = s;
                            t.fgate[qubit_b[s]] = s;
                            if (stack_push(&t.work, s)) {
                                rc = SABRE_NO_MEMORY;
                                goto done;
                            }
                        } else {
                            ready[nready++] = s;
                        }
                    }
                }
            }
            rh = nready = 0;
        }
        if (t.nfront == 0)
            break;
        if (ran) {
            if (decay_steps) {
                for (q = 0; q < n; q++)
                    decay[q] = 1.0;
                decay_steps = 0;
            }
            stall = 0;
            front_dirty = 1;
        }
        if (stall >= cfg->stall_limit) {
            int span = t.nswaps, len;
            if (nesc >= escape_cap) {
                rc = SABRE_ESCAPES_FULL;
                goto done;
            }
            rc = escape(&t, scratch, scratch + n);
            if (rc)
                goto done;
            escapes[2 * nesc] = span;
            escapes[2 * nesc + 1] = t.nswaps - span;
            nesc++;
            /* A span can move one front gate more than once: a second
             * pop of an executed gate would execute it again. */
            qsort(t.work.data, (size_t)t.work.len, sizeof(int), cmp_int);
            for (i = 0, len = 0; i < t.work.len; i++)
                if (len == 0 || t.work.data[len - 1] != t.work.data[i])
                    t.work.data[len++] = t.work.data[i];
            t.work.len = len;
            if (decay_steps) {
                for (q = 0; q < n; q++)
                    decay[q] = 1.0;
                decay_steps = 0;
            }
            stall = 0;
            front_dirty = 1;
            continue;
        }
        if (front_dirty) {
            /* VectorBlock.set_front: front partners, then the look-ahead
             * set (FrontierState.extended_nodes) and its partner lists. */
            for (i = 0; i < ntouched; i++) {
                pf[touched[i]] = -1;
                pe_cnt[touched[i]] = 0;
            }
            ntouched = 0;
            for (i = 0; i < t.nfront; i++) {
                int g = t.front[i];
                pf[qubit_a[g]] = qubit_b[g];
                pf[qubit_b[g]] = qubit_a[g];
                touched[ntouched++] = qubit_a[g];
                touched[ntouched++] = qubit_b[g];
            }
            ne = 0;
            if (lookahead) {
                int head = 0, tail = 0;
                epoch++;
                for (i = 0; i < t.nfront; i++)
                    queue[tail++] = t.front[i];
                while (head < tail && ne < ext_cap) {
                    int index = queue[head++];
                    for (k = ir->succ_off[index]; k < ir->succ_off[index + 1]; k++) {
                        int s = ir->succ[k], r;
                        if (stamps[s] == epoch) {
                            r = virt[s] - 1;
                        } else {
                            r = remaining[s] - 1;
                            stamps[s] = epoch;
                        }
                        virt[s] = r;
                        if (r == 0) {
                            if (two_qubit[s]) {
                                ext[ne++] = s;
                                if (ne >= ext_cap)
                                    break;
                            }
                            queue[tail++] = s;
                        }
                    }
                }
                for (i = 0; i < ne; i++) {
                    int a = qubit_a[ext[i]], b = qubit_b[ext[i]];
                    if (pf[a] < 0 && pe_cnt[a] == 0)
                        touched[ntouched++] = a;
                    pe_cnt[a]++;
                    if (pf[b] < 0 && pe_cnt[b] == 0)
                        touched[ntouched++] = b;
                    pe_cnt[b]++;
                }
                for (i = 0, k = 0; i < ntouched; i++) {
                    q = touched[i];
                    pe_off[q] = k;
                    k += pe_cnt[q];
                    pe_cnt[q] = 0;
                }
                for (i = 0; i < ne; i++) {
                    int a = qubit_a[ext[i]], b = qubit_b[ext[i]];
                    pe[pe_off[a] + pe_cnt[a]++] = b;
                    pe[pe_off[b] + pe_cnt[b]++] = a;
                }
            }
            front_dirty = 0;
        }
        {
            /* VectorBlock.score_scalar, in its float order. */
            const double weight = cfg->weight;
            const double penalty = cfg->penalty;
            int ncand = 0;
            double sum_f = 0.0, sum_e = 0.0, ext_const, slack;
            double best_score = INFINITY, cutoff = INFINITY;
            for (i = 0; i < t.nfront; i++) {
                int g = t.front[i];
                int h[2];
                h[0] = t.l2p[qubit_a[g]];
                h[1] = t.l2p[qubit_b[g]];
                sum_f += dist[h[0] * n + h[1]];
                for (k = 0; k < 2; k++) {
                    int p = h[k], j;
                    for (j = dev->nb_off[p]; j < dev->nb_off[p + 1]; j++) {
                        int nb = dev->nb[j];
                        cands[ncand++] = p < nb ? p * n + nb : nb * n + p;
                    }
                }
            }
            qsort(cands, (size_t)ncand, sizeof(int), cmp_int);
            for (i = 0, k = 0; i < ncand; i++)
                if (k == 0 || cands[k - 1] != cands[i])
                    cands[k++] = cands[i];
            ncand = k;
            for (i = 0; i < ne; i++)
                sum_e += dist[t.l2p[qubit_a[ext[i]]] * n + t.l2p[qubit_b[ext[i]]]];
            ext_const = ne ? weight * (sum_e + 0.0) / ne : 0.0;
            slack = ne ? weight * dev->spread / ne : 0.0;
            nbest = 0;
            for (i = 0; i < ncand; i++) {
                int pa = cands[i] / n, pb = cands[i] % n;
                int row_a = pa * n, row_b = pb * n, other, j;
                double delta = 0.0, cost = 0.0, score;
                qa = t.p2l[pa];
                qb = t.p2l[pb];
                other = pf[qa];
                if (other >= 0 && other != qb) {
                    int po = t.l2p[other];
                    delta += dist[row_b + po] - dist[row_a + po];
                }
                other = pf[qb];
                if (other >= 0 && other != qa) {
                    int po = t.l2p[other];
                    delta += dist[row_a + po] - dist[row_b + po];
                }
                if (penalty != 0.0)
                    cost = penalty * (dist[row_a + pb] - 1.0);
                if (cfg->basic) {
                    score = sum_f + delta;
                } else {
                    score = (sum_f + delta) / t.nfront;
                    if (ne) {
                        int ka = pe_cnt[qa], kb = pe_cnt[qb];
                        if (ka || kb) {
                            double low = score + ext_const - slack * (ka + kb);
                            if (penalty != 0.0)
                                low += cost;
                            if (low > cutoff)
                                continue;
                            delta = 0.0;
                            for (j = 0; j < ka; j++) {
                                other = pe[pe_off[qa] + j];
                                if (other != qb) {
                                    int po = t.l2p[other];
                                    delta += dist[row_b + po] - dist[row_a + po];
                                }
                            }
                            for (j = 0; j < kb; j++) {
                                other = pe[pe_off[qb] + j];
                                if (other != qa) {
                                    int po = t.l2p[other];
                                    delta += dist[row_a + po] - dist[row_b + po];
                                }
                            }
                            score += weight * (sum_e + delta) / ne;
                        } else {
                            score += ext_const;
                        }
                    }
                }
                if (cfg->uses_decay) {
                    double da = decay[qa], db = decay[qb];
                    score *= da >= db ? da : db;
                }
                if (penalty != 0.0)
                    score += cost;
                if (score < best_score - SCORE_EPSILON) {
                    best_score = score;
                    cutoff = score + 2.0 * SCORE_EPSILON;
                    nbest = 0;
                    best[2 * nbest] = qa;
                    best[2 * nbest + 1] = qb;
                    nbest = 1;
                } else if (score <= best_score + SCORE_EPSILON) {
                    best[2 * nbest] = qa;
                    best[2 * nbest + 1] = qb;
                    nbest++;
                }
            }
        }
        if (nbest == 0) {
            rc = SABRE_NO_WINNER;
            goto done;
        }
        choice = nbest == 1 ? 0 : randbelow(mt, &mti, nbest);
        qa = best[2 * choice];
        qb = best[2 * choice + 1];
        rc = apply_swap(&t, qa, qb);
        if (rc)
            goto done;
        decay[qa] += cfg->decay_delta;
        decay[qb] += cfg->decay_delta;
        decay_steps++;
        if (decay_steps >= cfg->decay_interval) {
            for (q = 0; q < n; q++)
                decay[q] = 1.0;
            decay_steps = 0;
        }
        stall++;
    }

    {
        int depth = 0;
        for (q = 0; q < n; q++)
            if (t.wire[q] > depth)
                depth = t.wire[q];
        out[0] = t.nswaps;
        out[1] = nesc;
        out[2] = depth;
    }
    memcpy(l2p_io, t.l2p, (size_t)n * sizeof(int));
    memcpy(p2l_io, t.p2l, (size_t)n * sizeof(int));
    memcpy(mt_io, mt, sizeof mt);
    mt_io[MT_N] = (uint32_t)mti;

done:
    free(remaining);
    free(virt);
    free(stamps);
    free(queue);
    free(ready);
    free(ints);
    free(cands);
    free(best);
    free(ext);
    free(pe);
    free(decay);
    free(t.work.data);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Lowering: FlatDag's Python views and FlatDag.folded, as CSR tables. */

int sabre_lower(sabre_ir *ir, const int *arity, const unsigned char *directive)
{
    const int nodes = ir->num_nodes;
    const int nq = ir->num_qubits;
    const int *ops = ir->pair;
    int *pair_off = ir->pair_off;
    int *last = NULL, *pred = NULL, *pos = NULL, *end = NULL, *depth = NULL;
    int rc = SABRE_OK, m, i, j, k, nf;

    pair_off[0] = 0;
    for (i = 0; i < nodes; i++) {
        if (arity[i] < 1) /* every gate has an operand */
            return SABRE_BAD_INPUT;
        pair_off[i + 1] = pair_off[i] + arity[i];
    }
    m = pair_off[nodes];
    for (k = 0; k < m; k++)
        if (ops[k] < 0 || ops[k] >= nq)
            return SABRE_BAD_INPUT;
    last = malloc((size_t)nq * sizeof(int) + 1);
    pred = malloc((size_t)m * sizeof(int) + 1);
    pos = malloc((size_t)nodes * sizeof(int) + 1);
    end = malloc((size_t)nodes * sizeof(int) + 1);
    depth = malloc((size_t)nodes * sizeof(int) + 1);
    if (!last || !pred || !pos || !end || !depth) {
        rc = SABRE_NO_MEMORY;
        goto done;
    }

    /* The full DAG, in FlatDag's last-gate-per-wire pass: node i's
     * predecessors (deduplicated, ascending) go to pred[pair_off[i]..],
     * and succ_off[p + 1] counts p's successors. */
    for (i = 0; i < nq; i++)
        last[i] = -1;
    memset(ir->succ_off, 0, ((size_t)nodes + 1) * sizeof(int));
    ir->num_uroots = 0;
    ir->num_two = 0;
    for (i = 0; i < nodes; i++) {
        int off = pair_off[i], cnt = 0;
        for (k = 0; k < arity[i]; k++) {
            int q = ops[off + k], p = last[q];
            last[q] = i;
            if (p < 0)
                continue;
            for (j = 0; j < cnt && pred[off + j] < p; j++)
                ;
            if (j < cnt && pred[off + j] == p)
                continue;
            memmove(pred + off + j + 1, pred + off + j,
                    (size_t)(cnt - j) * sizeof(int));
            pred[off + j] = p;
            cnt++;
        }
        ir->indegree[i] = cnt;
        for (j = 0; j < cnt; j++)
            ir->succ_off[pred[off + j] + 1]++;
        if (cnt == 0)
            ir->uroots[ir->num_uroots++] = i;
        if (arity[i] == 2 && !directive[i]) {
            ir->two_qubit[i] = 1;
            ir->qubit_a[i] = ops[off];
            ir->qubit_b[i] = ops[off + 1];
            ir->num_two++;
        } else {
            ir->two_qubit[i] = 0;
            ir->qubit_a[i] = -1;
            ir->qubit_b[i] = -1;
        }
    }
    for (i = 0; i < nodes; i++) {
        ir->succ_off[i + 1] += ir->succ_off[i];
        pos[i] = ir->succ_off[i];
    }
    /* Nodes arrive ascending, so every successor row comes out ascending. */
    for (i = 0; i < nodes; i++)
        for (j = 0; j < ir->indegree[i]; j++)
            ir->succ[pos[pred[pair_off[i] + j]]++] = i;

    /* Folding: end[i] is the multi-qubit node a dependency on i resolves
     * to (i itself, or the node ending its single-qubit chain; -1 at the
     * wire's end); depth[i] counts the depth-counted gates from a
     * single-qubit i to the end of its chain. */
    for (i = nodes - 1; i >= 0; i--) {
        end[i] = arity[i] >= 2 ? i : -1;
        depth[i] = 0;
        if (arity[i] < 2) {
            depth[i] = !directive[i];
            for (k = ir->succ_off[i]; k < ir->succ_off[i + 1]; k++) {
                end[i] = end[ir->succ[k]];
                depth[i] += depth[ir->succ[k]];
            }
        }
    }
    memcpy(ir->fill, ir->indegree, (size_t)nodes * sizeof(int));
    for (i = 0; i < nq; i++)
        ir->root_depth[i] = 0;
    ir->fsucc_off[0] = 0;
    nf = 0;
    for (i = 0; i < nodes; i++) {
        int off = pair_off[i];
        for (k = off; k < pair_off[i + 1]; k++)
            ir->tail[k] = 0;
        if (arity[i] >= 2) {
            for (k = ir->succ_off[i]; k < ir->succ_off[i + 1]; k++) {
                int s = ir->succ[k];
                if (end[s] >= 0)
                    ir->fsucc[nf++] = end[s];
                if (depth[s]) {
                    /* s heads the single-qubit chain on one wire of i */
                    int q = ops[pair_off[s]];
                    for (j = off; j < pair_off[i + 1]; j++)
                        if (ops[j] == q)
                            ir->tail[j] = depth[s];
                }
            }
        } else if (!ir->fill[i]) { /* the head of a root chain */
            ir->root_depth[ops[off]] = depth[i];
            if (end[i] >= 0)
                ir->fill[end[i]]--;
        }
        ir->fsucc_off[i + 1] = nf;
    }
    ir->num_roots = 0;
    for (i = 0; i < nodes; i++)
        if (arity[i] >= 2 && !ir->fill[i])
            ir->roots[ir->num_roots++] = i;

done:
    free(last);
    free(pred);
    free(pos);
    free(end);
    free(depth);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Replay: SabreRouter._replay's gate order over the unfolded DAG.     */

/* Execute node index: count it, write it to the order, and release its
 * successors (two-qubit gates into log, the rest into the ready queue). */
static int replay_execute(const sabre_ir *ir, int index, int *remaining,
                          int *order, int *npos, int *ready, int *nready,
                          int_stack *log)
{
    int k;
    order[(*npos)++] = index;
    for (k = ir->succ_off[index]; k < ir->succ_off[index + 1]; k++) {
        int s = ir->succ[k];
        if (--remaining[s] == 0) {
            if (ir->two_qubit[s]) {
                if (stack_push(log, s))
                    return SABRE_NO_MEMORY;
            } else {
                ready[(*nready)++] = s;
            }
        }
    }
    return SABRE_OK;
}

/* Execute the ready queue in FIFO order, including what it releases
 * (FrontierState.drain_nonrouting). */
static int replay_drain(const sabre_ir *ir, int *remaining, int *order,
                        int *npos, int *ready, int *nready, int_stack *log)
{
    int head = 0, rc;
    while (head < *nready) {
        rc = replay_execute(ir, ready[head++], remaining, order, npos,
                            ready, nready, log);
        if (rc)
            return rc;
    }
    *nready = 0;
    return SABRE_OK;
}

int sabre_replay(const sabre_device *dev, const sabre_ir *ir,
                 const int *l2p_in, const int *swaps, int nswaps,
                 const int *escapes, int nesc, int *order, int *out)
{
    const int n = dev->n;
    const int nodes = ir->num_nodes;
    const unsigned char *adj = dev->adj;
    const int *qubit_a = ir->qubit_a;
    const int *qubit_b = ir->qubit_b;
    int *remaining = NULL, *ready = NULL, *batch = NULL, *ints = NULL;
    int *l2p, *fgate;
    int_stack log = {NULL, 0, 0}, check = {NULL, 0, 0};
    int npos = 0, nready = 0, si = 0, ei = 0, rc = SABRE_OK, i, k;

    remaining = malloc((size_t)nodes * sizeof(int) + 1);
    ready = malloc((size_t)nodes * sizeof(int) + 1);
    batch = malloc((size_t)nodes * sizeof(int) + 1);
    ints = malloc((size_t)n * 2 * sizeof(int) + 1);
    if (!remaining || !ready || !batch || !ints) {
        rc = SABRE_NO_MEMORY;
        goto done;
    }
    l2p = ints;
    fgate = ints + n;           /* front gate of each logical qubit */
    memcpy(l2p, l2p_in, (size_t)n * sizeof(int));
    memcpy(remaining, ir->indegree, (size_t)nodes * sizeof(int));
    for (i = 0; i < n; i++)
        fgate[i] = -1;
    for (i = 0; i < ir->num_uroots; i++) {
        int r = ir->uroots[i];
        if (ir->two_qubit[r]) {
            if (stack_push(&log, r)) {
                rc = SABRE_NO_MEMORY;
                goto done;
            }
        } else {
            ready[nready++] = r;
        }
    }
    rc = replay_drain(ir, remaining, order, &npos, ready, &nready, &log);
    if (rc)
        goto done;

    for (;;) {
        int nbatch = 0, span = 1;
        /* Released two-qubit gates join the front and the ready check. */
        for (i = 0; i < log.len; i++) {
            int g = log.data[i];
            fgate[qubit_a[g]] = g;
            fgate[qubit_b[g]] = g;
            if (stack_push(&check, g)) {
                rc = SABRE_NO_MEMORY;
                goto done;
            }
        }
        log.len = 0;
        if (npos - si == nodes)
            break;
        /* The ready scan: checked gates, deduplicated, ascending. */
        if (check.len > 1) {
            qsort(check.data, (size_t)check.len, sizeof(int), cmp_int);
            for (i = 0, k = 0; i < check.len; i++)
                if (k == 0 || check.data[k - 1] != check.data[i])
                    check.data[k++] = check.data[i];
            check.len = k;
        }
        for (i = 0; i < check.len; i++) {
            int g = check.data[i];
            if (adj[l2p[qubit_a[g]] * n + l2p[qubit_b[g]]])
                batch[nbatch++] = g;
        }
        check.len = 0;
        if (nbatch) {
            /* The batch ascending, then the cascade it released. */
            for (i = 0; i < nbatch; i++) {
                int g = batch[i];
                fgate[qubit_a[g]] = -1;
                fgate[qubit_b[g]] = -1;
                rc = replay_execute(ir, g, remaining, order, &npos, ready,
                                    &nready, &log);
                if (rc)
                    goto done;
            }
            rc = replay_drain(ir, remaining, order, &npos, ready, &nready,
                              &log);
            if (rc)
                goto done;
            continue;
        }
        /* No gate is ready: the next SWAP, or a whole escape span (the
         * search applied those back to back, without a ready scan). */
        while (ei < nesc && escapes[2 * ei] < si)
            ei++;
        while (ei < nesc && escapes[2 * ei] == si) {
            span = escapes[2 * ei + 1];
            ei++;
        }
        if (span < 1)
            span = 1;
        if (si + span > nswaps) {
            rc = SABRE_BAD_INPUT;
            goto done;
        }
        for (k = 0; k < span; k++, si++) {
            int qa = swaps[2 * si], qb = swaps[2 * si + 1];
            int pa = l2p[qa], g1 = fgate[qa], g2 = fgate[qb];
            order[npos++] = SABRE_SWAP;
            l2p[qa] = l2p[qb];
            l2p[qb] = pa;
            if ((g1 >= 0 && stack_push(&check, g1))
                || (g2 >= 0 && g2 != g1 && stack_push(&check, g2))) {
                rc = SABRE_NO_MEMORY;
                goto done;
            }
        }
    }
    out[0] = si;

done:
    free(remaining);
    free(ready);
    free(batch);
    free(ints);
    free(log.data);
    free(check.data);
    return rc;
}
