/* lanenav's planner and episode loop in C: the rollout loop of the PUCT
 * search over a flat node table, the temperature pick of the planner's
 * action from the root's visits, and the loop that plays an episode's
 * steps with them.
 *
 * kernel.py compiles this file into the package's kernel object. mcts.py
 * calls lanenav_search from run_search and lanenav_select from
 * select_by_temperature and plan_action, which document them; harness.py
 * calls lanenav_play, which plays a run of an episode's steps: per step it
 * takes the action (the planner's search and pick, or a given action),
 * moves the agent with the clamp of the planner's expansion and reads the
 * outcome from the palette frame the agent lands in. The kernel keeps the
 * float arithmetic of the planner bit for bit:
 *
 * - every expression is evaluated in the order the Python planner wrote it,
 *   and the file is compiled without contraction into fused multiply-adds;
 * - exp, log, cos and atan2 come from libm, as they do for Python's math
 *   module;
 * - the shaping term's hypot is Python's own math.hypot, passed in as a
 *   callback, because CPython computes hypot with its own algorithm.
 *
 * kernel.py declares every struct and constant Python shares with this file,
 * and checks them on load against lanenav_search_layout at its end.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

#define N_ACTIONS 8
#define MAX_DEPTH 64

/* Kernel errors, distinct from _world.c's; kernel.ERRORS raises for each
 * the exception Python's arithmetic would. */
#define ERR_OVERFLOW (-1)  /* an exp overflowed: OverflowError */
#define ERR_ZERO_DIV (-2)  /* shaping on a 1 x 1 grid, a zero temperature or no visits: ZeroDivisionError */
#define ERR_NAN_POS (-3)   /* a move gave a NaN position: ValueError */
#define ERR_DEPTH (-4)     /* rollout length outside 1..MAX_DEPTH */
#define ERR_EMPTY (-5)     /* no visit counts to pick from: ValueError */
#define ERR_MEMORY (-6)
#define ERR_ACTION (-7)    /* a given action outside 0..N_ACTIONS - 1 */

/* One tree node (kernel.NODE). NaN in terminal_value or stop_value stands
 * for None. */
typedef struct {
    double x, y;
    double terminal_value;
    double stop_value;
    double prior[N_ACTIONS];
    double w[N_ACTIONS];
    double mean[N_ACTIONS]; /* w / n, 0.0 while unvisited */
    int64_t n[N_ACTIONS];
    int64_t total;
    int32_t children[N_ACTIONS]; /* row of the child, -1 for none */
    int32_t depth;
} Node;

typedef double (*hypot_fn)(double, double);

/* The settings of one search (kernel.SEARCH), packed by mcts.run_search. */
typedef struct {
    Node *nodes;     /* room for n_rollouts + 1 rows, a rollout adding at most one node, or
                      * for the full tree of depth k where that is fewer */
    hypot_fn hypot;
    int64_t n_rollouts, k, height, width, goal_size; /* goal_size: the side of each estimate's goal block */
    double x0, y0, c_puct, kappa, death_value, goal_value, beta, diag;
    double moves[2 * N_ACTIONS]; /* (dx, dy) of each action */
} Search;

/* One predicted frame (kernel.FRAME): where its occupancy lies, then its
 * goal estimate, NaN goal_x for none. */
typedef struct {
    const uint8_t *occ; /* height x width bytes, nonzero where occupied */
    double goal_x, goal_y;
} Frame;

/* world.round_px in doubles: floor(x + 0.5), or ceil(x - 0.5) below zero. */
static double round_px(double x) { return x >= 0.0 ? floor(x + 0.5) : ceil(x - 0.5); }

static void init_node(Node *node, int32_t depth, double x, double y, double terminal_value, double stop_value)
{
    int a;
    node->x = x;
    node->y = y;
    node->terminal_value = terminal_value;
    node->stop_value = stop_value;
    for (a = 0; a < N_ACTIONS; a++) {
        node->prior[a] = 1.0 / N_ACTIONS;
        node->w[a] = 0.0;
        node->mean[a] = 0.0;
        node->n[a] = 0;
        node->children[a] = -1;
    }
    node->total = 0;
    node->depth = depth;
}

/* mcts.goal_prior into prior, toward the frame's goal estimate. */
static int goal_prior(double x, double y, const Frame *frame, double kappa, double *prior)
{
    double weights[N_ACTIONS], dx, dy, theta, total = 0.0;
    int a;
    if (isnan(frame->goal_x))
        return 0;
    dx = frame->goal_x - x;
    dy = frame->goal_y - y;
    if (dx == 0.0 && dy == 0.0)
        return 0;
    theta = atan2(dy, dx);
    for (a = 0; a < N_ACTIONS; a++) {
        weights[a] = exp(kappa * cos(a * M_PI / 4.0 - theta));
        if (isinf(weights[a]))
            return ERR_OVERFLOW;
        total += weights[a];
    }
    for (a = 0; a < N_ACTIONS; a++)
        prior[a] = weights[a] / total;
    return 0;
}

/* Fill the node table with the tree of the search's rollouts; return the
 * node count, or a negative ERR_*. frames holds the k frames of depths
 * 1..k. Each frame's goal block is computed once per search, as
 * world.goal_block computes it: columns and rows lo..lo + goal_size - 1,
 * lo = round_px(goal - (goal_size - 1) / 2); a NaN goal_x, no goal
 * estimate, gives a NaN block, which holds no cell. */
int64_t lanenav_search(const Search *search, const Frame *frames)
{
    Node *const nodes = search->nodes;
    const int64_t k = search->k, width = search->width;
    const double *const moves = search->moves;
    const double c_puct = search->c_puct, kappa = search->kappa, beta = search->beta;
    const double max_x = (double)(width - 1), max_y = (double)(search->height - 1);
    const double span = (double)(search->goal_size - 1), half = span / 2.0;
    double blocks[MAX_DEPTH][4]; /* col_lo, col_hi, row_lo, row_hi */
    int32_t path_rows[MAX_DEPTH];
    int path_actions[MAX_DEPTH];
    int64_t count = 1, rollout, d;

    if (k < 1 || k > MAX_DEPTH)
        return ERR_DEPTH;
    for (d = 0; d < k; d++) {
        blocks[d][0] = round_px(frames[d].goal_x - half);
        blocks[d][1] = blocks[d][0] + span;
        blocks[d][2] = round_px(frames[d].goal_y - half);
        blocks[d][3] = blocks[d][2] + span;
    }
    init_node(&nodes[0], 0, search->x0, search->y0, NAN, NAN);
    for (rollout = 0; rollout < search->n_rollouts; rollout++) {
        int32_t row = 0;
        int length = 0, i;
        double value;
        for (;;) {
            Node *node = &nodes[row];
            int action = 0, a;
            int32_t child_row;
            if (node->total) {
                /* PUCT: q + c * p * sqrt(total) / (1 + n); a strict > keeps
                 * ties at the lowest index. */
                double scale = sqrt((double)node->total);
                double best = node->mean[0] + c_puct * node->prior[0] * scale / (double)(node->n[0] + 1);
                for (a = 1; a < N_ACTIONS; a++) {
                    double score = node->mean[a] + c_puct * node->prior[a] * scale / (double)(node->n[a] + 1);
                    if (score > best) {
                        best = score;
                        action = a;
                    }
                }
            } else {
                /* The first rollout through the node: with every q 0 and
                 * scale 1 the pick is the first argmax of c_puct * prior. */
                double best;
                if (goal_prior(node->x, node->y, &frames[node->depth], kappa, node->prior))
                    return ERR_OVERFLOW;
                best = c_puct * node->prior[0];
                for (a = 1; a < N_ACTIONS; a++) {
                    if (c_puct * node->prior[a] > best) {
                        best = c_puct * node->prior[a];
                        action = a;
                    }
                }
            }
            path_rows[length] = row;
            path_actions[length] = action;
            length++;
            child_row = node->children[action];
            if (child_row < 0) {
                /* Expand: the world's move, then what arriving there means. */
                const int32_t depth = node->depth + 1;
                const Frame *frame = &frames[depth - 1];
                const double *block = blocks[depth - 1];
                double x = node->x + moves[2 * action], y = node->y + moves[2 * action + 1], px, py;
                double terminal_value = NAN, stop_value = NAN;
                if (x < 0.0)
                    x = 0.0;
                else if (x > max_x)
                    x = max_x;
                if (y < 0.0)
                    y = 0.0;
                else if (y > max_y)
                    y = max_y;
                if (isnan(x) || isnan(y))
                    return ERR_NAN_POS;
                px = floor(x + 0.5);
                py = floor(y + 0.5);
                if (block[0] <= px && px <= block[1] && block[2] <= py && py <= block[3]) {
                    value = terminal_value = stop_value = search->goal_value;
                } else if (frame->occ[(int64_t)py * width + (int64_t)px]) {
                    value = terminal_value = stop_value = search->death_value;
                } else {
                    value = 0.0;
                    if (beta != 0.0 && !isnan(frame->goal_x)) {
                        if (search->diag == 0.0)
                            return ERR_ZERO_DIV;
                        value = -beta * search->hypot(x - frame->goal_x, y - frame->goal_y) / search->diag;
                    }
                    if (depth >= k)
                        stop_value = value;
                }
                init_node(&nodes[count], depth, x, y, terminal_value, stop_value);
                node->children[action] = (int32_t)count++;
                break;
            }
            if (!isnan(nodes[child_row].stop_value)) {
                value = nodes[child_row].stop_value;
                break;
            }
            row = child_row;
        }
        /* Back up: one visit and the rollout value on every edge of the path. */
        for (i = 0; i < length; i++) {
            Node *node = &nodes[path_rows[i]];
            const int a = path_actions[i];
            const int64_t visits = node->n[a] + 1;
            const double summed = node->w[a] + value;
            node->n[a] = visits;
            node->w[a] = summed;
            node->mean[a] = summed / (double)visits;
            node->total += 1;
        }
    }
    return count;
}

/* The temperature weight of one visit count, exp((log(n) - top) / t), 0.0
 * for none; an ERR_* where Python's arithmetic raised. */
static int temperature_weight(int64_t visits, double top, double temperature, double *weight)
{
    double x;
    if (visits <= 0) {
        *weight = 0.0;
        return 0;
    }
    if (temperature == 0.0)
        return ERR_ZERO_DIV;
    x = (log((double)visits) - top) / temperature;
    *weight = exp(x);
    /* math.exp raises on a finite argument only. */
    return isinf(*weight) && isfinite(x) ? ERR_OVERFLOW : 0;
}

/* mcts.select_by_temperature's pick from n visit counts at a temperature,
 * for the uniform draw u in [0, 1): the index of u in the normalized
 * cumulative distribution of the weights N(a)^(1/temperature), or a
 * negative ERR_*. Step by step as the Python planner computed it: top is
 * the largest log of a count (-inf for none), the weights are
 * exp((log(n) - top) / temperature), 0.0 for a zero count, their total is a
 * left fold, the cdf the running sums of weight / total, each divided by
 * the last, and the pick the count of cdf entries <= u, as bisect_right
 * gives it. */
int64_t lanenav_select(const int64_t *visits, int64_t n, double temperature, double u)
{
    double stack[N_ACTIONS], *cdf = stack, top = -INFINITY, total = 0.0, last;
    int64_t a, index = 0;
    int error = 0;
    if (n < 1)
        return ERR_EMPTY;
    if (n > N_ACTIONS && (cdf = malloc((size_t)n * sizeof *cdf)) == NULL)
        return ERR_MEMORY;
    for (a = 0; a < n; a++)
        if (visits[a] > 0 && log((double)visits[a]) > top)
            top = log((double)visits[a]);
    for (a = 0; a < n; a++) {
        if ((error = temperature_weight(visits[a], top, temperature, &cdf[a])))
            break;
        total += cdf[a];
    }
    if (!error && total == 0.0)
        error = ERR_ZERO_DIV;
    if (!error) {
        cdf[0] = cdf[0] / total;
        for (a = 1; a < n; a++)
            cdf[a] = cdf[a - 1] + cdf[a] / total;
        last = cdf[n - 1];
        /* Not u < entry: an entry <= u, and a NaN entry counts, as in bisect_right. */
        for (a = 0; a < n; a++)
            if (!(u < cdf[a] / last))
                index++;
    }
    if (cdf != stack)
        free(cdf);
    return error ? error : index;
}

/* Outcome kinds of a step, in the order of kernel.OUTCOMES. */
enum { RUNNING, GOAL_REACHED, DIED, TIMED_OUT };
#define GOAL 6 /* the goal's palette value */

/* One step of an episode (kernel.STEP): the agent's position after it, its
 * action and the outcome kind it met. */
typedef struct {
    double x, y;
    int64_t action, kind;
} Step;

/* A run of an episode's steps (kernel.PLAY), packed by harness.py: the
 * planner's search settings, whose (x0, y0) is the agent's start; what the
 * harness updates before each call; what stays for the episode; and what
 * the kernel writes back. */
typedef struct {
    Search search;                  /* the grid and the moves serve every agent, the rest the planner */
    const Frame *frames;            /* frames[i] is the frame of time origin + i; a NULL occ: not read yet */
    const uint8_t *const *palettes; /* palettes[t]: the palette frame of time t, t < n_times */
    int64_t origin, n_frames, n_times;
    const double *uniforms;         /* the planner: the pick's uniform draw at time t, t < n_given */
    const int64_t *actions;         /* the action taken at time t, t < n_given; NULL: the planner picks */
    Step *steps;                    /* room for max_steps: the step from time t at steps[t] */
    int64_t n_given;
    int64_t first, stride; /* the frame of depth d + 1 at time t is that of time t + first + stride * d */
    int64_t max_steps;
    double temperature;
    int64_t t;        /* the time of the next step */
    int64_t pending;  /* the action of time t taken before its frame t + 1 was simulated, -1 for none */
    int64_t searches; /* the searches run so far */
} Play;

#define PLAY_STOPPED 0 /* a frame, draw or action the next step needs is not there yet */
#define PLAY_ENDED 1   /* the last step met a terminal outcome */
#define NOT_READ (-100) /* plan: a frame of the window is not read yet */

/* The planner's action at time t from (x, y): a search over the window of
 * frames, then the temperature pick from the root's visits on the time's
 * draw; NOT_READ where a frame of the window is not read yet, or an
 * ERR_*. */
static int64_t plan(Play *play, Frame *window, int64_t t, double x, double y)
{
    Search search = play->search;
    int64_t d, count;
    for (d = 0; d < search.k; d++) {
        const int64_t i = t - play->origin + play->first + play->stride * d;
        if (i < 0 || i >= play->n_frames || play->frames[i].occ == NULL)
            return NOT_READ;
        window[d] = play->frames[i];
    }
    search.x0 = x;
    search.y0 = y;
    play->searches++;
    if ((count = lanenav_search(&search, window)) < 0)
        return count;
    return lanenav_select(search.nodes[0].n, N_ACTIONS, play->temperature, play->uniforms[t]);
}

/* Play steps from time play->t until one ends the episode (PLAY_ENDED),
 * a frame, draw or action the next step needs is not there (PLAY_STOPPED),
 * or an ERR_* of the search or pick. Per step: the action is the given
 * one, or the planner's on the frames of its window; the agent moves by
 * it, clamped to the grid as the search's expansion clamps; its outcome is
 * read from the pixel it lands on in the palette frame of time t + 1: the
 * goal, an obstacle, then the step limit. An action taken while frame
 * t + 1 is not there yet is kept in pending for the next call, so a step's
 * frames are asked for in the order the Python loop asked for them. */
int64_t lanenav_play(Play *play)
{
    Frame window[MAX_DEPTH];
    const int64_t width = play->search.width;
    const double max_x = (double)(width - 1), max_y = (double)(play->search.height - 1);
    int64_t t = play->t;
    double x = t ? play->steps[t - 1].x : play->search.x0, y = t ? play->steps[t - 1].y : play->search.y0;

    if (play->actions == NULL && (play->search.k < 1 || play->search.k > MAX_DEPTH))
        return ERR_DEPTH;
    for (;;) {
        int64_t action = play->pending, kind;
        uint8_t cell;
        if (action < 0) {
            if (t >= play->n_given)
                return PLAY_STOPPED;
            if (play->actions != NULL)
                action = play->actions[t];
            else if ((action = plan(play, window, t, x, y)) < 0)
                return action == NOT_READ ? PLAY_STOPPED : action;
        }
        if (action < 0 || action >= N_ACTIONS)
            return ERR_ACTION;
        if (t + 1 >= play->n_times) {
            play->pending = action;
            return PLAY_STOPPED;
        }
        play->pending = -1;
        x += play->search.moves[2 * action];
        y += play->search.moves[2 * action + 1];
        if (x < 0.0)
            x = 0.0;
        else if (x > max_x)
            x = max_x;
        if (y < 0.0)
            y = 0.0;
        else if (y > max_y)
            y = max_y;
        if (isnan(x) || isnan(y))
            return ERR_NAN_POS;
        cell = play->palettes[t + 1][(int64_t)floor(y + 0.5) * width + (int64_t)floor(x + 0.5)];
        t++;
        kind = cell == GOAL ? GOAL_REACHED : cell ? DIED : t >= play->max_steps ? TIMED_OUT : RUNNING;
        play->steps[t - 1] = (Step){x, y, action, kind};
        play->t = t;
        if (kind != RUNNING)
            return PLAY_ENDED;
    }
}

/* kernel.py's load check: per struct each field's offset and size, then the
 * struct's size; then the constants, in the order kernel.py lists them. */
#define FIELD(s, f) offsetof(s, f), sizeof(((s *)0)->f)
const int64_t lanenav_search_layout[] = {
    FIELD(Node, x), FIELD(Node, y), FIELD(Node, terminal_value), FIELD(Node, stop_value), FIELD(Node, prior),
    FIELD(Node, w), FIELD(Node, mean), FIELD(Node, n), FIELD(Node, total), FIELD(Node, children),
    FIELD(Node, depth), sizeof(Node),
    FIELD(Search, nodes), FIELD(Search, hypot), FIELD(Search, n_rollouts), FIELD(Search, k), FIELD(Search, height),
    FIELD(Search, width), FIELD(Search, goal_size), FIELD(Search, x0), FIELD(Search, y0), FIELD(Search, c_puct),
    FIELD(Search, kappa), FIELD(Search, death_value), FIELD(Search, goal_value), FIELD(Search, beta),
    FIELD(Search, diag), FIELD(Search, moves), sizeof(Search),
    FIELD(Frame, occ), FIELD(Frame, goal_x), FIELD(Frame, goal_y), sizeof(Frame),
    FIELD(Step, x), FIELD(Step, y), FIELD(Step, action), FIELD(Step, kind), sizeof(Step),
    FIELD(Play, search), FIELD(Play, frames), FIELD(Play, palettes), FIELD(Play, origin), FIELD(Play, n_frames),
    FIELD(Play, n_times), FIELD(Play, uniforms), FIELD(Play, actions), FIELD(Play, steps), FIELD(Play, n_given),
    FIELD(Play, first), FIELD(Play, stride), FIELD(Play, max_steps), FIELD(Play, temperature), FIELD(Play, t),
    FIELD(Play, pending), FIELD(Play, searches), sizeof(Play),
    N_ACTIONS, MAX_DEPTH, GOAL, PLAY_ENDED, RUNNING, GOAL_REACHED, DIED, TIMED_OUT,
};
const int64_t lanenav_search_layout_count = sizeof lanenav_search_layout / sizeof *lanenav_search_layout;
