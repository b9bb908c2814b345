/* lanenav's world in C: one step of the obstacle table, the rasterizer and
 * the reader of palette frames.
 *
 * kernel.py compiles this file with _search.c into one object; world.py
 * packs the inputs, draws the random numbers with numpy and documents the
 * rules. The kernels keep the float arithmetic of the world bit for bit:
 *
 * - round_px is floor(x + 0.5), or ceil(x - 0.5) below zero, in double;
 * - body cell i sits at round_px(head - (double)i);
 * - every expression is evaluated in source order, and the file is
 *   compiled without contraction into fused multiply-adds.
 *
 * They never read or write outside a buffer: a lane index outside the lane
 * table, a length that is NaN, negative or past MAX_LEN1, and a lane row
 * outside the grid return an ERR_* that world.py raises.
 *
 * kernel.py declares every struct and constant Python shares with this file,
 * and checks them on load against lanenav_world_layout at its end.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Columns of the obstacle table, one row of doubles per body (world.py). */
enum { HEAD, SPEED, LEN1, LANE, N_COLUMNS };
/* Columns of the lane table, one row of doubles per lane (WorldState). */
enum { LEN_LO, LEN_RANGE, SPEED_LO, SPEED_RANGE, DIRECTION, ROW, VALUE, N_LANE_COLUMNS };

#define GOAL 6 /* the goal's palette value */
#define MAX_LEN1 2147483647.0 /* a cell index stays exact in a double */

/* Kernel errors, distinct from _search.c's; kernel.ERRORS raises for each. */
#define ERR_LANE (-8)    /* a lane index outside 0..n_lanes - 1, or not whole */
#define ERR_LENGTH (-9)  /* LEN1 NaN or outside 0..MAX_LEN1 */
#define ERR_ROW (-10)    /* a lane row outside the grid */
#define ERR_DRAWS (-11)  /* the counts ask for more uniforms or rows than given */
#define ERR_MEMORY (-12)

/* The sizes of one call (kernel.WORLD): the grid, the lanes, the table's
 * rows and the rows its buffer holds, the candidates drawn. */
typedef struct {
    int64_t height, width, n_lanes, n_rows, capacity, n_drawn;
} World;

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

/* One step of the obstacle table, in place: move every body, keep those
 * with a cell still on the grid, then spawn. counts holds the candidates per
 * lane, u two uniforms per candidate in draw order (length, then speed
 * magnitude). The kept rows move up in order, then the accepted spawns
 * follow in lane order, then draw order. Returns the new row count, or a
 * negative ERR_*, which leaves the table undefined. */
int64_t lanenav_world_step(const World *world, const double *lanes, const int64_t *counts, const double *u,
                           double *table)
{
    const int64_t width = world->width, n_lanes = world->n_lanes;
    /* Per lane: reach, then the mirror, -1 for none, else width - 1. */
    int64_t *reach, *mirror, lane, r, count = 0, used = 0;

    reach = malloc((size_t)(n_lanes > 0 ? 2 * n_lanes : 1) * sizeof *reach);
    if (reach == NULL)
        return ERR_MEMORY;
    mirror = reach + n_lanes;
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
        if (lane < 0) {
            free(reach);
            return lane;
        }
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
            if (used + 2 > 2 * world->n_drawn || count >= world->capacity) {
                free(reach);
                return ERR_DRAWS;
            }
            /* mean_length +- length_jitter of a valid class lies in -62..64. */
            length = round_px(draw[LEN_LO] + draw[LEN_RANGE] * u[used++]);
            if (length < 1)
                length = 1;
            speed = draw[DIRECTION] * (draw[SPEED_LO] + draw[SPEED_RANGE] * u[used++]);
            if (reach[lane] >= 1 - length)
                continue;
            /* Left-to-right bodies enter with the head on column 0;
             * right-to-left ones with the leading (smallest-x) cell on the
             * right edge. In mirrored columns both cover [1 - length, 0]. */
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
    return count;
}

/* Paint the visible cells of every body, cell i at column round_px(head - i),
 * with its lane's value on its lane's row of cells (height x width bytes,
 * zeroed by the caller). Paint order does not matter: same-lane bodies share
 * one value. Returns 0 or a negative ERR_*. */
int64_t lanenav_rasterize(const World *world, const double *lanes, const double *table, uint8_t *cells)
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

/* What lanenav_read_frame writes (kernel.FRAME_READ): the column and row
 * sums of the goal cells, then the obstacle mask, 1 on cells of values
 * 1..GOAL - 1. */
typedef struct {
    int64_t sum_x, sum_y;
    uint8_t mask[];
} FrameRead;

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

/* kernel.py's load check: per struct each field's offset and size, then the
 * struct's size; then the constants, in the order kernel.py lists them. */
#define FIELD(s, f) offsetof(s, f), sizeof(((s *)0)->f)
const int64_t lanenav_world_layout[] = {
    FIELD(World, height), FIELD(World, width), FIELD(World, n_lanes), FIELD(World, n_rows), FIELD(World, capacity),
    FIELD(World, n_drawn), sizeof(World),
    FIELD(FrameRead, sum_x), FIELD(FrameRead, sum_y), offsetof(FrameRead, mask), 0, sizeof(FrameRead),
    GOAL, N_COLUMNS, N_LANE_COLUMNS, (int64_t)MAX_LEN1,
};
const int64_t lanenav_world_layout_count = sizeof lanenav_world_layout / sizeof *lanenav_world_layout;
