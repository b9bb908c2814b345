/* lanenav's world in C: one step of the world, the obstacle table with its
 * random draws and then the goal's motion, the rasterizer, the reader of
 * palette frames, the frame loop of a timeline, which steps, paints and
 * reads each new frame of an episode's world, and the RLE text of a
 * palette frame in a trace file, its encoder and its checking decoder.
 *
 * kernel.py compiles this file with _search.c into one object, linked with
 * the installed numpy's libnpyrandom.a, ahead of it kernel.HEADER: the
 * structs (World, Timeline, Frame, FrameRead) and constants (GOAL,
 * N_COLUMNS, N_LANE_COLUMNS, MAX_LEN1, RLE_ROOM, BAD_RLE_TOKEN) this file
 * shares with Python, generated from kernel.py's declarations, which
 * document each field. tracefile.py calls the codec and builds its error
 * messages. world.py packs the inputs and documents the rules; world_step and
 * Timeline both step through lanenav_world_step, so the goal's motion is
 * written once, here. A step draws through numpy's own generators: it reads
 * each as the bitgen_t of rng.bit_generator, takes the per-lane Poisson
 * counts from numpy's random_poisson and the uniforms from next_double, so
 * the draws and the generators' states equal those of Generator.poisson and
 * Generator.random. The kernels keep the float arithmetic of the world bit
 * for bit:
 *
 * - round_px is floor(x + 0.5), or ceil(x - 0.5) below zero, in double;
 * - body cell i sits at round_px(head - (double)i);
 * - the goal reflects as world.reflect_axis does, one mirror per bounce;
 * - every expression is evaluated in source order, and the file is
 *   compiled without contraction into fused multiply-adds.
 *
 * They never read or write outside a buffer: a lane index outside the lane
 * table, a length that is NaN, negative or past MAX_LEN1, a lane row outside
 * the grid and a goal position that is not finite return an ERR_* that
 * world.py raises. A goal that steps more than GOAL_REACH cells past a wall,
 * which no valid world's goal does, returns ERR_GOAL_FAR before its first
 * mirror: the mirrors of a position near 1e300 round back to their
 * negations and never end.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's Poisson sampler, the one Generator.poisson calls, from
 * libnpyrandom.a; its header, numpy/random/distributions.h, needs Python.h. */
int64_t random_poisson(bitgen_t *bitgen_state, double lam);

/* Columns of the obstacle table, one row of N_COLUMNS doubles per body
 * (world.py), and of the lane table, one row of N_LANE_COLUMNS doubles per
 * lane (WorldState). */
enum { HEAD, SPEED, LEN1, LANE };
enum { LEN_LO, LEN_RANGE, SPEED_LO, SPEED_RANGE, DIRECTION, ROW, VALUE };
_Static_assert(LANE + 1 == N_COLUMNS && VALUE + 1 == N_LANE_COLUMNS, "table columns");

/* Kernel errors, distinct from _search.c's; kernel.ERRORS raises for each. */
#define ERR_LANE (-8)    /* a lane index outside 0..n_lanes - 1, or not whole */
#define ERR_LENGTH (-9)  /* LEN1 NaN or outside 0..MAX_LEN1 */
#define ERR_ROW (-10)    /* a lane row outside the grid */
#define ERR_DRAWS (-11)  /* the spawns ask for more rows than the buffer holds */
#define ERR_MEMORY (-12)
#define ERR_GOAL_NAN (-13)  /* a goal position that is NaN */
#define ERR_GOAL_INF (-14)  /* a goal position that is infinite */
#define ERR_LAM (-15)       /* a Poisson mean past numpy's POISSON_LAM_MAX, or NaN */
#define ERR_GOAL_FAR (-16)  /* a goal stepping more than GOAL_REACH cells past a wall */

static double next_double(bitgen_t *bitgen) { return bitgen->next_double(bitgen->state); }

/* floor and ceil of |v| < 2^62 by truncation, exact, without a libm call. */
static int64_t floor_int(double v)
{
    const int64_t t = (int64_t)v;
    return (double)t > v ? t - 1 : t;
}

static int64_t ceil_int(double v)
{
    const int64_t t = (int64_t)v;
    return (double)t < v ? t + 1 : t;
}

/* world.round_px for |x| < 2^61: every caller bounds x first. */
static int64_t round_px(double x) { return x >= 0.0 ? floor_int(x + 0.5) : ceil_int(x - 0.5); }

/* The lane index of a body, or ERR_*, checking what the kernels index with it. */
static int64_t body_lane(const World *world, const double *body)
{
    const double lane = body[LANE];
    if (!(lane >= 0.0 && lane < (double)world->n_lanes) || (double)(int64_t)lane != lane)
        return ERR_LANE;
    if (!(body[LEN1] >= 0.0 && body[LEN1] <= MAX_LEN1))
        return ERR_LENGTH;
    return (int64_t)lane;
}

static int is_left_to_right(const double *lane) { return lane[DIRECTION] == 1.0; }

/* The spawn overlap test reads, per lane, one number kept in one pass over
 * the table, not one table scan per drawing lane. Columns are mirrored for
 * right-to-left lanes (x becomes width - 1 - x), so that a spawn of either
 * direction covers [1 - length, 0]. It overlaps a span [lo, hi] of its lane
 * exactly when lo <= 0 and hi >= 1 - length, so the lane's reach is the
 * largest hi among its spans with lo <= 0, kept and spawned. */
static void add_span(int64_t mirror, int64_t lo, int64_t hi, int64_t *reach)
{
    const int64_t near = mirror < 0 ? lo : mirror - hi, far = mirror < 0 ? hi : mirror - lo;
    if (near <= 0 && far > *reach)
        *reach = far;
}

/* Draw the uniforms a step has not taken, free its scratch and return code:
 * a step that fails leaves the generators where a whole step leaves them. */
static int64_t fail(bitgen_t *classes, int64_t unused, int64_t *scratch, int64_t code)
{
    while (unused-- > 0)
        next_double(classes);
    free(scratch);
    return code;
}

/* world.reflect_axis(pos + vel, vel, 0.0, hi) in place: the overshoot
 * mirrored and the velocity's sign flipped per bounce, so its magnitude is
 * kept exactly; on an axis with no room (hi <= 0) the position is 0 and the
 * velocity flips. Returns 0, or ERR_GOAL_FAR, which changes nothing, for a
 * position more than GOAL_REACH outside [0, hi]. */
static int reflect_axis(double *pos, double *vel, double hi)
{
    const double lo = 0.0;
    double p = *pos + *vel, v = *vel;
    if (hi <= lo) {
        *pos = lo;
        *vel = -v;
        return 0;
    }
    if (p < lo - GOAL_REACH || p > hi + GOAL_REACH)
        return ERR_GOAL_FAR;
    for (;;) {
        if (p < lo) {
            p = 2.0 * lo - p;
            v = -v;
        } else if (p > hi) {
            p = 2.0 * hi - p;
            v = -v;
        } else {
            break;
        }
    }
    *pos = p;
    *vel = v;
    return 0;
}

/* One step of the world, in place: draw, move every body, keep those with
 * a cell still on the grid, spawn, then move the goal. First come all the
 * draws of the step: one Poisson count of candidates per lane from spawn,
 * then two uniforms per candidate from classes in draw order (length, then
 * speed magnitude), taken as the spawns read them; world->n_drawn is set to
 * the candidate count. The kept rows move up in order, then the accepted
 * spawns follow in lane order, then draw order; a lane accepts at most one
 * spawn a step, so a buffer of n_rows + n_lanes rows always suffices. Last
 * the goal moves by its velocity and reflects off the walls of [0, width -
 * goal_size] x [0, height - goal_size]. Returns the new row count, or a
 * negative ERR_*, which leaves the table undefined and the goal where it
 * was; a Poisson mean past numpy's POISSON_LAM_MAX, int64's largest minus
 * ten times its square root, returns ERR_LAM before any draw, as
 * Generator.poisson raises. With no table (NULL) it only draws and returns
 * 0. */
int64_t lanenav_world_step(World *world, const double *lanes, double *table)
{
    const int64_t width = world->width, n_lanes = world->n_lanes;
    /* Per lane: reach, then the mirror, -1 for none, else width - 1, then
     * the count drawn. */
    int64_t *reach, *mirror, *counts, lane, r, count = 0, unused = 0;
    double goal_x, goal_vx, goal_y, goal_vy;
    int code;

    if (!(world->lam <= (double)INT64_MAX - sqrt((double)INT64_MAX) * 10.0))
        return ERR_LAM;
    reach = malloc((size_t)(n_lanes > 0 ? 3 * n_lanes : 1) * sizeof *reach);
    if (reach == NULL)
        return ERR_MEMORY;
    mirror = reach + n_lanes;
    counts = mirror + n_lanes;
    for (lane = 0; lane < n_lanes; lane++) {
        counts[lane] = random_poisson(world->spawn, world->lam);
        unused += 2 * counts[lane];
    }
    world->n_drawn = unused / 2;
    if (table == NULL)
        return fail(world->classes, unused, reach, 0);
    for (lane = 0; lane < n_lanes; lane++) {
        reach[lane] = INT64_MIN;
        mirror[lane] = is_left_to_right(lanes + N_LANE_COLUMNS * lane) ? -1 : width - 1;
    }
    for (r = 0; r < world->n_rows; r++) {
        /* Row count <= r is written after row r is read. */
        const double *body = table + N_COLUMNS * r;
        const double speed = body[SPEED], len1 = body[LEN1], lane_index = body[LANE];
        const double head = body[HEAD] + speed;
        double *kept;
        int64_t hi;
        lane = body_lane(world, body);
        if (lane < 0)
            return fail(world->classes, unused, reach, lane);
        /* round_px(head) >= 0 and round_px(tail) < width, as exact float
         * comparisons: one of its cells is still on the grid. */
        if (!(head - 0.5 > -1.0 && head - len1 + 0.5 < (double)width))
            continue;
        kept = table + N_COLUMNS * count++;
        kept[HEAD] = head;
        kept[SPEED] = speed;
        kept[LEN1] = len1;
        kept[LANE] = lane_index;
        /* Only a span at an edge can reach a spawn: round_px(head) <= len1
         * implies head - len1 < 1, and round_px(head) >= width - 1 implies
         * head > width - 2. */
        if (head - len1 < 1.0 || head > (double)(width - 2)) {
            hi = round_px(head);
            add_span(mirror[lane], hi - (int64_t)len1, hi, &reach[lane]);
        }
    }
    for (lane = 0; lane < n_lanes; lane++) {
        const double *draw = lanes + N_LANE_COLUMNS * lane;
        int64_t k;
        for (k = 0; k < counts[lane]; k++) {
            double speed, *spawned;
            int64_t length;
            /* mean_length +- length_jitter of a valid class lies in -62..64. */
            length = round_px(draw[LEN_LO] + draw[LEN_RANGE] * next_double(world->classes));
            if (length < 1)
                length = 1;
            speed = draw[DIRECTION] * (draw[SPEED_LO] + draw[SPEED_RANGE] * next_double(world->classes));
            unused -= 2;
            if (reach[lane] >= 1 - length)
                continue;
            if (count >= world->capacity)
                return fail(world->classes, unused, reach, ERR_DRAWS);
            /* Left-to-right bodies enter with the head on column 0;
             * right-to-left ones with the leading (smallest-x) cell on the
             * right edge. In mirrored columns both cover [1 - length, 0].
             * The lane's reach is now >= 0: no later candidate fits. */
            if (reach[lane] < 0)
                reach[lane] = 0;
            spawned = table + N_COLUMNS * count++;
            spawned[HEAD] = (double)(mirror[lane] < 0 ? 0 : width - 1 + length - 1);
            spawned[SPEED] = speed;
            spawned[LEN1] = (double)(length - 1);
            spawned[LANE] = (double)lane;
        }
    }
    free(reach);
    goal_x = world->goal_x;
    goal_vx = world->goal_vx;
    goal_y = world->goal_y;
    goal_vy = world->goal_vy;
    if ((code = reflect_axis(&goal_x, &goal_vx, (double)(width - world->goal_size))) ||
        (code = reflect_axis(&goal_y, &goal_vy, (double)(world->height - world->goal_size))))
        return code;
    world->goal_x = goal_x;
    world->goal_vx = goal_vx;
    world->goal_y = goal_y;
    world->goal_vy = goal_vy;
    return count;
}

/* Paint the visible cells of every body, cell i at column round_px(head - i),
 * with its lane's value on its lane's row of cells. Paint order does not
 * matter: same-lane bodies share one value. Returns 0 or a negative ERR_*. */
static int64_t paint_bodies(const World *world, const double *lanes, const double *table, uint8_t *cells)
{
    const int64_t width = world->width;
    int64_t r;
    for (r = 0; r < world->n_rows; r++) {
        const double *body = table + N_COLUMNS * r, head = body[HEAD];
        const int64_t lane = body_lane(world, body);
        double row;
        uint8_t *cell_row, value;
        int64_t length, i;
        if (lane < 0)
            return lane;
        length = (int64_t)body[LEN1] + 1;
        row = lanes[N_LANE_COLUMNS * lane + ROW];
        if (!(row >= 0.0 && row < (double)world->height))
            return ERR_ROW;
        /* No visible cell: NaN or far left, or the tail right of the grid. */
        if (!(head > -1.0) || !(head - (double)(length - 1) < (double)width))
            continue;
        cell_row = cells + (int64_t)row * width;
        value = (uint8_t)lanes[N_LANE_COLUMNS * lane + VALUE];
        /* Here head < width + length, so the start is a few cells before
         * the first one left of column width. */
        i = floor_int(head - (double)width - 1.0);
        for (i = i > 0 ? i : 0; i < length; i++) {
            const int64_t col = round_px(head - (double)i);
            if (col >= width)
                continue;
            if (col < 0)
                break;
            cell_row[col] = value;
        }
    }
    return 0;
}

/* The goal block's cells along one axis of n cells, [*start, *stop): the
 * slice [max(lo, 0):lo + size] of numpy, lo = round_px(pos), a negative stop
 * counting from the end as numpy's does. A position past +-2^60 is far off
 * the grid and covers nothing. Returns 0, or where Python's round_px raised
 * ERR_GOAL_NAN or ERR_GOAL_INF. */
static int64_t goal_span(double pos, int64_t size, int64_t n, int64_t *start, int64_t *stop)
{
    int64_t lo, hi;
    if (pos != pos)
        return ERR_GOAL_NAN;
    if (pos - pos != 0.0)
        return ERR_GOAL_INF;
    if (!(pos > -0x1p60 && pos < 0x1p60)) {
        *start = *stop = 0;
        return 0;
    }
    lo = round_px(pos);
    hi = lo + size;
    if (hi < 0)
        hi = hi + n < 0 ? 0 : hi + n;
    *start = lo < 0 ? 0 : lo > n ? n : lo;
    *stop = hi > n ? n : hi;
    return 0;
}

/* Read a palette frame of height x width bytes into out; returns the goal
 * cell count. */
int64_t lanenav_read_frame(const World *world, const uint8_t *frame, FrameRead *out)
{
    const int64_t cells = world->height * world->width;
    const uint8_t *goal = frame;
    int64_t i, count = 0;
    for (i = 0; i < cells; i++)
        out->mask[i] = frame[i] >= 1 && frame[i] <= GOAL - 1;
    out->sum_x = out->sum_y = 0;
    while ((goal = memchr(goal, GOAL, (size_t)(frame + cells - goal))) != NULL) {
        i = goal++ - frame;
        count++;
        out->sum_x += i % world->width;
        out->sum_y += i / world->width;
    }
    return count;
}

/* The palette frame of a world into cells (height x width bytes, zeroed by
 * the caller): the bodies, then, where goal_size > 0, the goal block on
 * top. Where read and record are given (both or neither), the frame is then
 * read into read, and its record for the search written: the mask's
 * address and the goal estimate, the goal cells' sums over their count, NaN
 * without a goal cell. Returns the goal cell count read (0 unread), or a
 * negative ERR_*. */
int64_t lanenav_rasterize(const World *world, const double *lanes, const double *table, uint8_t *cells,
                          FrameRead *read, Frame *record)
{
    const int64_t size = world->goal_size;
    int64_t x0, x1, y0, y1, y, count, error = paint_bodies(world, lanes, table, cells);
    if (error < 0)
        return error;
    if (size > 0) {
        if ((error = goal_span(world->goal_x, size, world->width, &x0, &x1)) < 0
            || (error = goal_span(world->goal_y, size, world->height, &y0, &y1)) < 0)
            return error;
        for (y = y0; y < y1 && x0 < x1; y++)
            memset(cells + y * world->width + x0, GOAL, (size_t)(x1 - x0));
    }
    if (read == NULL)
        return 0;
    count = lanenav_read_frame(world, cells, read);
    record->occ = read->mask;
    record->goal_x = count ? (double)read->sum_x / (double)count : NAN;
    record->goal_y = count ? (double)read->sum_y / (double)count : NAN;
    return count;
}

/* Simulate a timeline's frames until frame t is there. Per new frame n: the
 * world's step (none for frame 0), then the frame pass into the cells of
 * frame n, zeroed first, and the frame's palette address and record. Returns
 * the frame count once frame t is there, 0 where the next frame or its step
 * has no room yet (no cells left, or fewer than n_lanes free table rows), or
 * a negative ERR_*, which leaves the frame count where it was; a step taken
 * before a frame pass that fails stays taken, as world_step's did before a
 * raising render_frame. */
int64_t lanenav_advance(Timeline *timeline, int64_t t)
{
    World *const world = &timeline->world;
    const size_t size = (size_t)(world->height * world->width);
    int64_t n, code;
    while ((n = timeline->n_frames) <= t) {
        uint8_t *const cells = timeline->cells;
        if (n >= timeline->room || (n > 0 && world->n_rows + world->n_lanes > world->capacity))
            return 0;
        if (n > 0) {
            if ((code = lanenav_world_step(world, timeline->lanes, timeline->table)) < 0)
                return code;
            world->n_rows = code;
            timeline->spawn_draws += world->n_drawn;
        }
        memset(cells, 0, size);
        code = lanenav_rasterize(world, timeline->lanes, timeline->table, cells,
                                 (FrameRead *)(cells + timeline->read_at), &timeline->records[n]);
        if (code < 0)
            return code;
        timeline->palettes[n] = cells;
        timeline->cells = cells + timeline->stride;
        timeline->n_frames = n + 1;
    }
    return n;
}

/* Write the decimal digits of v >= 0 at p; returns the end. */
static char *put_digits(char *p, int64_t v)
{
    char digits[20], *d = digits + sizeof digits;
    do
        *--d = (char)('0' + v % 10);
    while ((v /= 10) > 0);
    memcpy(p, d, (size_t)(digits + sizeof digits - d));
    return p + (digits + sizeof digits - d);
}

/* The RLE text of a frame of cells bytes, as tracefile.frame_to_rle gives
 * it: "value:count" per run of equal bytes in order, joined by ','. A run of
 * n cells takes at most 5 + n characters with its comma, so out needs room
 * for RLE_ROOM * cells bytes. Returns the text's length. */
int64_t lanenav_frame_to_rle(const uint8_t *frame, int64_t cells, char *out)
{
    char *p = out;
    int64_t i = 0;
    while (i < cells) {
        const uint8_t value = frame[i];
        const int64_t start = i;
        while (++i < cells && frame[i] == value)
            ;
        if (p != out)
            *p++ = ',';
        p = put_digits(p, value);
        *p++ = ':';
        p = put_digits(p, i - start);
    }
    return p - out;
}

/* The digit run at *p before end, its value saturating at INT64_MAX as
 * numpy's int64 parse does; *p is left after it. Returns -1 without a
 * digit. */
static int64_t take_number(const char **p, const char *end)
{
    const int64_t tenth = INT64_MAX / 10, last = INT64_MAX % 10;
    const char *q = *p;
    int64_t v = 0;
    if (q == end || *q < '0' || *q > '9')
        return -1;
    for (; q < end && *q >= '0' && *q <= '9'; q++) {
        const int64_t digit = *q - '0';
        v = v < tenth || (v == tenth && digit <= last) ? v * 10 + digit : INT64_MAX;
    }
    *p = q;
    return v;
}

/* Check length bytes of RLE text by tracefile.rle_to_frame's rules, in
 * their order: the line must be "value:count" tokens of ASCII digits joined
 * by ',', then each value 0..GOAL and each count 0..cells, else
 * BAD_RLE_TOKEN; only then is the size, the sum of the counts (saturating),
 * returned. With out given, also decode the runs into out while they fit,
 * so at most cells bytes, the whole frame where the size is cells. Each
 * byte of the text is read once. */
int64_t lanenav_rle_to_frame(const char *text, int64_t length, int64_t cells, uint8_t *out)
{
    const char *p = text, *const end = text + length;
    int64_t size = 0;
    for (;;) {
        const int64_t value = take_number(&p, end);
        int64_t count;
        if (value < 0 || p == end || *p++ != ':' || (count = take_number(&p, end)) < 0)
            return BAD_RLE_TOKEN;
        if (p != end && *p != ',')
            return BAD_RLE_TOKEN;
        if (value > GOAL || count > cells)
            return BAD_RLE_TOKEN;
        if (out != NULL && count <= cells - size)
            memset(out + size, (int)value, (size_t)count);
        size = size > INT64_MAX - count ? INT64_MAX : size + count;
        if (p++ == end)
            return size;
    }
}
