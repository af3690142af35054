/* mesoped's compiled kernel, plain C for ctypes; mesoped.kernel compiles it,
 * and its callers own every buffer. It holds two things:
 *
 * `solve`, the navigation-field solve of mesoped.floorfield.compute_field:
 * synchronous frontier rounds outward from the sinks, each cell's update one
 * `gamma * max` of its neighbours' values, so the values are value
 * iteration's bit for bit and the rounds are the frontier solve's.
 *
 * `run`, the step loop of mesoped.engine.Simulation: spawns, the exits of the
 * agents standing on a sink, the shuffle and the move pass, step after step
 * in one call. Random numbers come from the run's own PCG64, numpy's PCG64
 * step for step, drawn as numpy's own `Generator.shuffle` and
 * `Generator.integers` draw them; engine.PCG64 seeds it as numpy's
 * `SeedSequence` would.
 *
 * Build with -ffp-contract=off and never -ffast-math, so that `gamma * m`,
 * `t_in + wait` and `probs[d] * values[j]` round as Python's doubles do.
 */
#include <float.h>
#include <stdint.h>
#include <string.h>

/* The highest value among the destinations of cell i's permitted moves in
 * the direction-major table `nbr`, or 0 when it has none. Every value is at
 * least +0.0 and none is NaN, so this equals the oracle's numpy max with a 0
 * for each missing move. */
static double best_neighbour(const intptr_t *nbr, int64_t cells, const double *values, int64_t i)
{
    double best = 0.0;
    for (int d = 0; d < 8; d++) {
        intptr_t j = nbr[d * cells + i];
        if (j >= 0 && values[j] > best)
            best = values[j];
    }
    return best;
}

/* Solves the field in place: on entry `values` holds each sink's reward and 0
 * elsewhere; on return each non-sink cell that reaches a sink holds gamma
 * times its best neighbour. Each round gathers the non-sink neighbours of the
 * cells that rose in the round before (the sinks, at first), each one once,
 * computes every one's `gamma * max` from the values before the round, then
 * keeps those that are higher. Returns the rounds, the last of which raises
 * nothing. `work` is scratch for 3 * cells int32 (round marks, risen cells,
 * the round's cells) and `next` for cells doubles; `mark` must start at 0.
 * *plateau is the first non-sink cell, in flat order, whose value is
 * positive, subnormal and no lower than its best neighbour's, or -1. */
int64_t solve(const intptr_t *nbr, const uint8_t *sink, int64_t cells, double gamma,
              double *values, int32_t *work, double *next, int64_t *plateau)
{
    int32_t *mark = work, *risen = work + cells, *near = work + 2 * cells;
    int64_t n_risen = 0, rounds = 0;
    for (int64_t i = 0; i < cells; i++)
        if (sink[i])
            risen[n_risen++] = (int32_t)i;
    while (n_risen) {
        int64_t n_near = 0;
        rounds++;
        for (int64_t k = 0; k < n_risen; k++)
            for (int d = 0; d < 8; d++) {
                intptr_t j = nbr[d * cells + risen[k]];
                if (j >= 0 && !sink[j] && mark[j] != rounds) {
                    mark[j] = (int32_t)rounds;
                    near[n_near++] = (int32_t)j;
                }
            }
        for (int64_t k = 0; k < n_near; k++)
            next[k] = gamma * best_neighbour(nbr, cells, values, near[k]);
        n_risen = 0;
        for (int64_t k = 0; k < n_near; k++)
            if (next[k] > values[near[k]]) {
                values[near[k]] = next[k];
                risen[n_risen++] = near[k];
            }
    }
    *plateau = -1;
    for (int64_t i = 0; i < cells; i++)
        if (!sink[i] && values[i] > 0.0 && values[i] < DBL_MIN
            && values[i] >= best_neighbour(nbr, cells, values, i)) {
            *plateau = i;
            break;
        }
    return rounds;
}

/* numpy's PCG64: a 128-bit LCG with XSL-RR output, handing out each 64-bit
 * output as two 32-bit draws, low half first. engine.PCG64 mirrors this layout. */
struct pcg64 {
    uint64_t state_hi, state_lo, inc_hi, inc_lo;
    int has_uint32;
    uint32_t uinteger;  /* the buffered high half, when has_uint32 */
};

#define PCG_MULT_HI 0x2360ed051fc65da4ULL  /* the multiplier 0x2360ed051fc65da44385df649fccf645 */
#define PCG_MULT_LO 0x4385df649fccf645ULL

/* The high 64 bits of the 128-bit product a * b. */
static uint64_t mulhi(uint64_t a, uint64_t b)
{
    uint64_t a0 = (uint32_t)a, a1 = a >> 32, b0 = (uint32_t)b, b1 = b >> 32;
    uint64_t mid = a1 * b0 + (a0 * b0 >> 32);
    return a1 * b1 + (mid >> 32) + ((a0 * b1 + (uint32_t)mid) >> 32);
}

/* Steps state to state * mult + inc (mod 2**128), then returns rotr64(hi ^ lo, state >> 122). */
static uint64_t next64(struct pcg64 *g)
{
    uint64_t lo = g->state_lo * PCG_MULT_LO;
    uint64_t hi = mulhi(g->state_lo, PCG_MULT_LO) + g->state_hi * PCG_MULT_LO
                  + g->state_lo * PCG_MULT_HI;
    g->state_lo = lo + g->inc_lo;
    g->state_hi = hi + g->inc_hi + (g->state_lo < lo);
    uint64_t x = g->state_hi ^ g->state_lo;
    unsigned rot = (unsigned)(g->state_hi >> 58);
    return (x >> rot) | (x << (-rot & 63));
}

static uint32_t next32(struct pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    uint64_t x = next64(g);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(x >> 32);
    return (uint32_t)x;
}

enum { SPAWN, MOVE, STAY, EXIT };  /* event codes, in the order of engine.KINDS */

/* engine._Run mirrors this layout: the pointers, then the counts, then dt. */
struct run {
    const intptr_t *nbr;   /* (8, cells): destination of move k from cell i, or -1 */
    const double *values;  /* navigation value by cell */
    const uint8_t *sink;   /* 1 on a sink */
    const double *probs;   /* entry probability by density */
    const double *dwell;   /* time to cross a cell by count of other occupants; inf when stuck */
    struct pcg64 *rng;
    int32_t *density, *at;
    double *t_in;
    int32_t *present, *order;  /* ids inside (ascending), and the same shuffled */
    int64_t *pending;          /* (cell, remaining, release step) per unspent entry */
    int32_t *starts, *log_agents;
    uint8_t *log_kinds;
    int32_t *log_cells;
    int64_t cells, capacity, steps, step, agents, agent_room, n_present, n_pending;
    int64_t starts_room, events, event_room, need_agents, need_events;
    double dt;
};

/* numpy's random_interval(max) for max < 2**32: a masked rejection. */
static uint32_t interval(uint32_t max, struct pcg64 *rng)
{
    uint32_t mask = max, value;
    mask |= mask >> 1; mask |= mask >> 2; mask |= mask >> 4; mask |= mask >> 8; mask |= mask >> 16;
    while ((value = next32(rng) & mask) > max)
        ;
    return value;
}

/* `Generator.shuffle` of a list of n items: swap i with random_interval(i), from the end down. */
void shuffle(int32_t *ids, int64_t n, struct pcg64 *rng)
{
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = interval((uint32_t)i, rng);
        int32_t t = ids[i];
        ids[i] = ids[j];
        ids[j] = t;
    }
}

/* `int(Generator.integers(n))` for 1 <= n <= 2**32, by Lemire's method as numpy does it. */
uint64_t draw(uint64_t n, struct pcg64 *rng)
{
    if (n == 1)
        return 0;
    uint64_t m = (uint64_t)next32(rng) * n;
    if ((uint32_t)m < n) {
        uint64_t threshold = (0x100000000ULL - n) % n;
        while ((uint32_t)m < threshold)
            m = (uint64_t)next32(rng) * n;
    }
    return m >> 32;
}

static void record(struct run *r, int32_t agent, uint8_t kind, int32_t cell)
{
    r->log_agents[r->events] = agent;
    r->log_kinds[r->events] = kind;
    r->log_cells[r->events++] = cell;
}

/* Scores orthogonal moves first; a diagonal must beat them, and a tie left is drawn. */
static void move(struct run *r, int32_t a, double clock)
{
    const int64_t n = r->cells;
    int32_t i = r->at[a], *density = r->density;
    if (clock < r->t_in[a] + r->dwell[density[i] - 1])
        return;
    double best = 0.0, floor = 0.0;
    intptr_t dest = -1, ties[8];
    int nt = 0;
    for (int k = 0; k < 8; k++) {
        int dir = k < 4 ? 2 * k : 2 * k - 7;  /* N, E, S, W, then NE, SE, SW, NW */
        if (k == 4)
            floor = best;  /* a diagonal ties only above the orthogonal best */
        intptr_t j = r->nbr[dir * n + i];
        if (j < 0)
            continue;
        double score = r->probs[density[j]] * r->values[j];
        if (score > best) {
            best = score, dest = j, nt = 0;
        } else if (score == best && best > floor) {
            if (nt == 0)
                ties[nt++] = dest;
            ties[nt++] = j;
        }
    }
    if (best <= 0.0) {
        record(r, a, STAY, i);
        return;
    }
    if (nt)
        dest = ties[draw(nt, r->rng)];
    density[i]--;
    density[dest]++;
    r->at[a] = (int32_t)dest;
    r->t_in[a] = clock;
    record(r, a, MOVE, (int32_t)dest);
}

/* Makes up to r->steps steps, stopping early once nobody is inside or waiting
 * when `until_done`. Step 0 is the release at clock 0 alone. Returns 1, with
 * the step not begun, when a buffer lacks room for the next step (the need is
 * in need_agents and need_events), else 0. */
int run(struct run *r, int until_done)
{
    while (r->steps > 0 && !(until_done && r->n_present == 0 && r->n_pending == 0)) {
        int64_t s = r->step + 1, spawns = 0, *p = r->pending, kept = 0;
        for (int64_t k = 0; k < r->n_pending; k++)
            if (p[3 * k + 2] <= s)
                spawns += p[3 * k + 1] < r->capacity ? p[3 * k + 1] : r->capacity;
        /* Each spawn, each exit and at most one move or stay per agent inside is logged. */
        r->need_agents = spawns;
        r->need_events = r->n_present + 2 * spawns;
        if (r->agents + spawns > r->agent_room || r->events + r->need_events > r->event_room
            || s >= r->starts_room)
            return 1;
        r->step = s;
        r->steps--;
        double clock = (double)s * r->dt;
        r->starts[s] = (int32_t)r->events;

        for (int64_t k = 0; k < r->n_pending; k++, p += 3) {
            while (p[2] <= s && p[1] > 0 && r->density[p[0]] < r->capacity) {
                int32_t a = (int32_t)r->agents++;
                r->at[a] = (int32_t)p[0];
                r->t_in[a] = clock;
                r->present[r->n_present++] = a;
                r->density[p[0]]++;
                p[1]--;
                record(r, a, SPAWN, (int32_t)p[0]);
            }
            if (p[1])
                memmove(r->pending + 3 * kept++, p, 3 * sizeof *p);
        }
        r->n_pending = kept;
        if (s == 0)
            continue;

        /* No spawn cell is a sink, so an agent on a sink moved there last step:
         * it exits now, in id order, and the rest stay to move. */
        kept = 0;
        for (int64_t m = 0; m < r->n_present; m++) {
            int32_t a = r->present[m];
            if (r->sink[r->at[a]]) {
                r->density[r->at[a]]--;
                record(r, a, EXIT, r->at[a]);
            } else {
                r->present[kept] = r->order[kept] = a;
                kept++;
            }
        }
        r->n_present = kept;
        shuffle(r->order, r->n_present, r->rng);
        for (int64_t m = 0; m < r->n_present; m++)
            move(r, r->order[m], clock);
    }
    return 0;
}
