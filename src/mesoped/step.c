/* mesoped's compiled kernel, plain C for ctypes; mesoped.kernel compiles it,
 * and its callers own every buffer. It holds six things:
 *
 * `parse_walls`, `edge_conflict` and `open_perimeter`: the wall codes that
 * mesoped.layout.parse_layout reads, and the checks of validate_grid.
 *
 * `neighbours`, the move table of mesoped.layout.LayoutGrid.neighbours.
 *
 * `solve`, the navigation-field solve of mesoped.floorfield.compute_field:
 * synchronous frontier rounds outward from the sinks, in which each cell that
 * rose offers `gamma` times its value to its neighbours and each cell takes
 * its best offer when it beats its value, so the values are value iteration's
 * bit for bit and the rounds are the frontier solve's.
 *
 * `run`, the step loop of mesoped.engine.Simulation: spawns, the exits of the
 * agents standing on a sink, the shuffle and the move pass, step after step
 * in one call, on columns that only it writes. Random numbers come from the
 * run's own PCG64, numpy's PCG64 step for step, drawn as numpy's own
 * `Generator.shuffle` and `Generator.integers` draw them; engine.PCG64 seeds
 * it as numpy's `SeedSequence` would.
 *
 * `summarize`, the one walk of an event log behind mesoped.metrics.summarize.
 *
 * The CSV writers: `events_csv` for mesoped.engine.events_csv_blocks, and
 * `number_values` and `field_csv` for mesoped.floorfield.field_csv_blocks.
 * Each fills a block the caller owns with whole lines or cells, and Python
 * formats every float in them, so the text is Python's `repr`.
 *
 * Build with -ffp-contract=off and never -ffast-math, so that `gamma * m`,
 * `t_in + wait`, `probs[d] * values[j]` and `s * dt - spawn * dt` round as Python's do.
 */
#include <float.h>
#include <stdint.h>
#include <string.h>

/* Wall bits of mesoped.layout: a set bit closes that side of a cell. */
#define TOP 8
#define RIGHT 4
#define BOTTOM 2
#define LEFT 1

/* Fills the direction-major move table `nbr` (8 rows of rows * cols): entry
 * d * rows * cols + i is the flat index of the cell that move d (N, NE, E,
 * SE, S, SW, W, NW) leads to from cell i, or -1 where the move leaves the
 * grid or a wall closes it. `walls` holds the wall codes row by row. A side
 * move needs its side open at the source. A diagonal passes a cell corner:
 * it needs the two flanking sides open at the source and the two opposite
 * ones at the destination, which together are the four edges meeting at that
 * corner (no corner cutting). */
void neighbours(const uint8_t *walls, int64_t rows, int64_t cols, int32_t *nbr)
{
    static const int dr[8] = {-1, -1, 0, 1, 1, 1, 0, -1}, dc[8] = {0, 1, 1, 1, 0, -1, -1, -1};
    static const uint8_t here[8] = {TOP, TOP | RIGHT, RIGHT, BOTTOM | RIGHT,
                                    BOTTOM, BOTTOM | LEFT, LEFT, TOP | LEFT};
    static const uint8_t there[8] = {0, BOTTOM | LEFT, 0, TOP | LEFT,
                                     0, TOP | RIGHT, 0, BOTTOM | RIGHT};
    for (int d = 0; d < 8; d++) {
        const int64_t step = dr[d] * cols + dc[d];
        for (int64_t r = 0, i = 0; r < rows; r++, i += cols, nbr += cols) {
            /* the columns whose move d stays on the grid */
            int64_t lo = dc[d] < 0, hi = cols - (dc[d] > 0);
            if (r + dr[d] < 0 || r + dr[d] >= rows)
                lo = hi = 0;
            for (int64_t c = 0; c < cols; c++)
                nbr[c] = -1;
            for (int64_t c = lo; c < hi; c++)
                nbr[c] = (walls[i + c] & here[d]) | (walls[i + c + step] & there[d])
                         ? -1 : (int32_t)(i + c + step);
        }
    }
}

/* Reads `rows` lines of `cols` wall codes, each line ended by '\n', from
 * `text` into `walls`, row by row. A line is taken only when it holds ASCII
 * digits and blanks alone, and each code is spelled as serialize_layout writes
 * it: 0 to 15, with no sign and no leading zero. Returns the index of the first
 * line that is not taken, or -1 when every line is. */
int64_t parse_walls(const char *text, int64_t rows, int64_t cols, uint8_t *walls)
{
    for (int64_t r = 0; r < rows; r++, text++) {
        for (int64_t n = 0;; n++) {
            while (*text == ' ' || (*text >= '\t' && *text <= '\r' && *text != '\n'))
                text++;
            if (*text == '\n' && n == cols)
                break;
            int code = *text++ - '0';
            if (code < 0 || code > 9 || n == cols)
                return r;
            if (code == 1 && *text >= '0' && *text <= '5')
                code = 10 + *text++ - '0';
            if (*text >= '0' && *text <= '9')
                return r;
            *walls++ = (uint8_t)code;
        }
    }
    return -1;
}

/* The first shared edge whose two cells disagree on it, in row-major order of
 * the first cell, its east edge before its south edge: 2 * i for cell i's east
 * edge, 2 * i + 1 for its south edge, or -1 when every edge agrees. */
int64_t edge_conflict(const uint8_t *walls, int64_t rows, int64_t cols)
{
    for (int64_t r = 0, i = 0; r < rows; r++)
        for (int64_t c = 0; c < cols; c++, i++) {
            if (c + 1 < cols && !(walls[i] & RIGHT) != !(walls[i + 1] & LEFT))
                return 2 * i;
            if (r + 1 < rows && !(walls[i] & BOTTOM) != !(walls[i + cols] & TOP))
                return 2 * i + 1;
        }
    return -1;
}

/* The first open perimeter side of a cell that is not a sink, perimeter cells
 * in row-major order, each one's top, bottom, left and right side in turn:
 * 16 * i plus the side's wall bit for cell i, or -1 when there is none. */
int64_t open_perimeter(const uint8_t *walls, const uint8_t *sink, int64_t rows, int64_t cols)
{
    static const uint8_t order[4] = {TOP, BOTTOM, LEFT, RIGHT};
    for (int64_t r = 0; r < rows; r++)
        for (int64_t c = 0; c < cols; c += 0 < r && r < rows - 1 && c < cols - 1 ? cols - 1 : 1) {
            int64_t i = r * cols + c;
            int edge = (r == 0 ? TOP : 0) | (r == rows - 1 ? BOTTOM : 0)
                       | (c == 0 ? LEFT : 0) | (c == cols - 1 ? RIGHT : 0);
            for (int k = 0; k < 4 && !sink[i]; k++)
                if (edge & order[k] & ~walls[i])
                    return 16 * i + order[k];
        }
    return -1;
}

/* The highest value among the destinations of cell i's permitted moves in
 * the direction-major table `nbr`, or 0 when it has none. Every value is at
 * least +0.0 and none is NaN (compute_field refuses any other sink reward), so
 * this equals the oracle's numpy max with a 0 for each missing move. */
static double best_neighbour(const int32_t *nbr, int64_t cells, const double *values, int64_t i)
{
    double best = 0.0;
    for (int d = 0; d < 8; d++) {
        int32_t j = nbr[d * cells + i];
        if (j >= 0 && values[j] > best)
            best = values[j];
    }
    return best;
}

/* Solves the field in place: on entry `values` holds each sink's reward and 0
 * elsewhere; on return each non-sink cell that reaches a sink holds gamma
 * times its best neighbour. Each round, every cell that rose in the round
 * before (the sinks, at first) offers `gamma` times its value, read before
 * the round, to each of its non-sink neighbours; `near` lists the cells
 * offered one, each once. Then every listed cell whose best offer beats its
 * value takes it. This equals a round that recomputes each listed cell's
 * `gamma * max` of all its neighbours: a neighbour that did not rise in the
 * round before was counted when the cell was last listed, and `gamma * max`
 * is the max of the products, as rounding is monotone. So the values are
 * value iteration's bit for bit and the rounds are the frontier solve's.
 * Offering along a cell's own moves relies on the move table being
 * symmetric. Returns the rounds, the last of which raises nothing. `work` is
 * scratch for 3 * cells int32 (round marks, risen cells, the round's offered
 * cells) and `next` for cells doubles, each cell's best offer in a round;
 * `mark` must start at 0. *plateau is the first non-sink cell, in flat order,
 * whose value is positive, subnormal and no lower than its best neighbour's,
 * or -1. */
int64_t solve(const int32_t *nbr, const uint8_t *sink, int64_t cells, double gamma,
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
        for (int64_t k = 0; k < n_risen; k++) {
            double offer = gamma * values[risen[k]];
            for (int d = 0; d < 8; d++) {
                int32_t j = nbr[d * cells + risen[k]];
                if (j < 0 || sink[j])
                    continue;
                if (mark[j] != rounds) {
                    mark[j] = (int32_t)rounds;
                    near[n_near++] = j;
                    next[j] = offer;
                } else if (offer > next[j])
                    next[j] = offer;
            }
        }
        n_risen = 0;
        for (int64_t k = 0; k < n_near; k++)
            if (next[near[k]] > values[near[k]]) {
                values[near[k]] = next[near[k]];
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
    const int32_t *nbr;   /* (8, cells): destination of move k from cell i, or -1 */
    const double *values;  /* navigation value by cell */
    const uint8_t *sink;   /* 1 on a sink */
    const double *probs;   /* entry probability by density, 0 .. capacity */
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

/* What `run` returns: done; out of room for the next step; or FULL_LOG for a
 * next step that could take the log past INT32_MAX events, the most that the
 * int32 `starts` can index. */
enum { DONE, ROOM, FULL_LOG };

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
    int32_t dest = -1, ties[8];
    int nt = 0;
    for (int k = 0; k < 8; k++) {
        int dir = k < 4 ? 2 * k : 2 * k - 7;  /* N, E, S, W, then NE, SE, SW, NW */
        if (k == 4)
            floor = best;  /* a diagonal ties only above the orthogonal best */
        int32_t j = r->nbr[dir * n + i];
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
    r->at[a] = dest;
    r->t_in[a] = clock;
    record(r, a, MOVE, dest);
}

/* Makes up to r->steps steps, stopping early once nobody is inside or waiting
 * when `until_done`. Step 0 is the release at clock 0 alone. `density` is
 * kept as agents spawn, move and exit, so each call goes on from the state
 * the last one left. Returns ROOM, with the step not begun, when a buffer
 * lacks room for the next step (the need is in need_agents and need_events),
 * FULL_LOG when that step could log past INT32_MAX events, else DONE. */
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
        if (r->events + r->need_events > INT32_MAX)
            return FULL_LOG;
        if (r->agents + spawns > r->agent_room || r->events + r->need_events > r->event_room
            || s >= r->starts_room)
            return ROOM;
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
    return DONE;
}

/* Walks an event log in order; event k is in the last step starting at k or
 * before, step s at clock s * dt. Keeps each agent's spawn step (-1: not yet),
 * cell and distance, to which a move adds `diagonal` when row and column both
 * change, else `side`. Writes each exit's travel time, distance and cell.
 * Returns -1 for an event of an agent outside 0 .. spawns - 1 or not yet spawned, else 0. */
int summarize(const int32_t *starts, int64_t steps, const int32_t *agents, const uint8_t *kinds,
              const int32_t *cells, int64_t events, int64_t cols, double dt, double side,
              double diagonal, int64_t spawns, int64_t *spawn_step, int32_t *at, double *walked,
              double *travel, double *distance, int32_t *exit_cells)
{
    for (int64_t k = 0, s = 0, n_exits = 0; k < events; k++) {
        while (s + 1 < steps && starts[s + 1] <= k)
            s++;
        int32_t a = agents[k], c = cells[k];
        if (a < 0 || a >= spawns || (kinds[k] != SPAWN && spawn_step[a] < 0))
            return -1;
        if (kinds[k] == SPAWN) {
            spawn_step[a] = s, at[a] = c, walked[a] = 0.0;
        } else if (kinds[k] == MOVE) {
            walked[a] += c / cols != at[a] / cols && c % cols != at[a] % cols ? diagonal : side;
            at[a] = c;
        } else if (kinds[k] == EXIT) {
            travel[n_exits] = (double)s * dt - (double)spawn_step[a] * dt;
            distance[n_exits] = walked[a];
            exit_cells[n_exits++] = c;
        }
    }
    return 0;
}

/* The decimal digits of n. */
static int digits(uint32_t n)
{
    int k = 1;
    while (n >= 10)
        n /= 10, k++;
    return k;
}

/* Writes the k decimal digits of n at out; returns the end. */
static char *put_int(char *out, uint32_t n, int k)
{
    for (int m = k; m-- > 0; n /= 10)
        out[m] = (char)('0' + n % 10);
    return out + k;
}

/* Text m of `texts`, which holds them one after another: texts[ends[m - 1]
 * .. ends[m]), with ends[-1] taken as 0. */
static const char *text_of(const char *texts, const int64_t *ends, int64_t m, int64_t *len)
{
    int64_t lo = m ? ends[m - 1] : 0;
    *len = ends[m] - lo;
    return texts + lo;
}

static const char KIND_TEXT[][8] = {",spawn,", ",move,", ",stay,", ",exit,"};
static const int KIND_LEN[] = {7, 6, 6, 6};

/* Writes the events.csv lines of a log's events at[0], at[0] + 1, ... into
 * out, whole lines only, as many as fit in `room` bytes, and returns the bytes
 * written; at[0] moves past them. A line is its step's prefix (`step,clock,`),
 * then the agent, the kind, the row and the column. Prefix p of `prefixes` is
 * that of the p-th step holding events, whose first event is firsts[p]; at[1]
 * is the prefix of event at[0]'s step. Returns -1, with at[0] at the event,
 * for an event whose agent or cell is negative or whose kind is not an event code. */
int64_t events_csv(const int32_t *agents, const uint8_t *kinds, const int32_t *cells,
                   int64_t events, int64_t cols, const int32_t *firsts, int64_t steps,
                   const char *prefixes, const int64_t *ends, int64_t *at, char *out, int64_t room)
{
    char *o = out;
    int64_t k = at[0], p = at[1];
    for (; k < events; k++) {
        while (p + 1 < steps && firsts[p + 1] <= k)
            p++;
        if (agents[k] < 0 || cells[k] < 0 || kinds[k] > EXIT) {
            at[0] = k, at[1] = p;
            return -1;
        }
        uint32_t agent = (uint32_t)agents[k], row = (uint32_t)(cells[k] / cols),
                 col = (uint32_t)(cells[k] % cols);
        int n_agent = digits(agent), n_row = digits(row), n_col = digits(col);
        int64_t n_prefix;
        const char *prefix = text_of(prefixes, ends, p, &n_prefix);
        if (o - out + n_prefix + n_agent + KIND_LEN[kinds[k]] + n_row + n_col + 2 > room)
            break;
        memcpy(o, prefix, (size_t)n_prefix);
        o = put_int(o + n_prefix, agent, n_agent);
        memcpy(o, KIND_TEXT[kinds[k]], (size_t)KIND_LEN[kinds[k]]);
        o = put_int(o + KIND_LEN[kinds[k]], row, n_row);
        *o++ = ',';
        o = put_int(o, col, n_col);
        *o++ = '\n';
    }
    at[0] = k, at[1] = p;
    return o - out;
}

/* Numbers the distinct 64-bit patterns among values[0 .. n) in order of first
 * appearance, so -0.0 and 0.0 are two: ids[i] is the number of values[i]'s
 * pattern, and distinct[m] the value numbered m. `table`, of `slots` int32
 * (a power of two) that are all -1 on entry, is an open-addressing table of
 * those numbers. Returns the count of patterns, or -1 as soon as the count
 * would pass slots / 2. */
int64_t number_values(const double *values, int64_t n, int32_t *ids, double *distinct,
                      int32_t *table, int64_t slots)
{
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t bits, seen, h;
        memcpy(&bits, values + i, sizeof bits);
        h = bits * 0x9e3779b97f4a7c15ULL;
        for (h ^= h >> 32;; h++) {
            int32_t *slot = table + (h & (uint64_t)(slots - 1));
            if (*slot < 0) {
                if (2 * (count + 1) > slots)
                    return -1;
                memcpy(distinct + count, &bits, sizeof bits);
                *slot = (int32_t)count++;
            }
            memcpy(&seen, distinct + *slot, sizeof seen);
            if (seen == bits) {
                ids[i] = *slot;
                break;
            }
        }
    }
    return count;
}

/* Writes the CSV text of cells at[0], at[0] + 1, ... of a field of `cols`
 * columns into out, whole cells only, as many as fit in `room` bytes, and
 * returns the bytes written; at[0] moves past them. Cell i is text ids[i] of
 * `texts`, then a comma, or a newline at the end of a row. */
int64_t field_csv(const int32_t *ids, int64_t cells, int64_t cols, const char *texts,
                  const int64_t *ends, int64_t *at, char *out, int64_t room)
{
    char *o = out;
    int64_t i = at[0];
    for (; i < cells; i++) {
        int64_t len;
        const char *text = text_of(texts, ends, ids[i], &len);
        if (o - out + len + 1 > room)
            break;
        memcpy(o, text, (size_t)len);
        o += len;
        *o++ = i % cols == cols - 1 ? '\n' : ',';
    }
    at[0] = i;
    return o - out;
}
