/* lanenav's planner and episode loop in C: the rollout loop of the PUCT
 * search over a flat node table, the temperature pick of the planner's
 * action from the root's visits, and the loop that plays an episode's
 * steps with them.
 *
 * kernel.py compiles this file into the package's kernel object, ahead of
 * it kernel.HEADER, generated from kernel.py's declarations: what this file
 * shares with Python (the structs, whose fields kernel.py documents, the
 * constants, the outcome enum and the ERR_* codes) and the prototype of
 * every lanenav_* function, so the compiler checks each definition here
 * against the types ctypes passes. mcts.py calls lanenav_search from
 * run_search and lanenav_select from select_by_temperature and
 * plan_action, which document them; harness.py calls lanenav_play, which
 * plays a run of an episode's steps on the episode's timeline: per step it
 * takes the action (the planner's search and pick, or a given action),
 * moves the agent as the planner's expansion does (move) and reads the
 * outcome from the palette frame the agent lands in. It simulates the
 * timeline's frames itself, through _world.c's lanenav_advance, when a
 * window or a landing needs one not simulated yet, growing the timeline
 * through its grow where a frame has no room, and returns at the episode's
 * end or where its given steps end (one step for a model that predicts in
 * Python). The kernel keeps the float arithmetic of the planner bit for bit:
 *
 * - every expression is evaluated in the order the Python planner wrote it,
 *   and the file is compiled without contraction into fused multiply-adds;
 * - exp, log, cos and atan2 come from libm, as they do for Python's math
 *   module;
 * - the shaping term's hypot is Python's own math.hypot, passed in as a
 *   callback, because CPython computes hypot with its own algorithm;
 * - the PUCT term c_puct * prior[a] * scale / (n + 1) is evaluated as
 *   ((c_puct * prior[a]) * scale) / (n + 1), so a node keeps the product
 *   c_puct * prior[a] in cp[a], set when its prior is, and the descent
 *   reads cp[a] * scale, as the first visit's argmax reads cp;
 * - a node keeps sqrt((double)total) in scale, which the back-up sets right
 *   after total += 1, so the descent reads the bits it computed from total
 *   before, with the square root off its chain of dependent loads;
 * - an unvisited edge's term is cp[a] * scale, not divided by n + 1 = 1,
 *   since x / 1.0 == x for every double.
 *
 * A node's goal prior depends only on the bits of its offset to the goal
 * estimate and of kappa, so the search reads it through a prior table,
 * which gives the bits the computation gives. The caller owns the table
 * and passes it in the Search: mcts.run_search makes one per search, the
 * harness one per episode, which serves every decision of the episode. The
 * kernels keep no static or global mutable state, so searches may run in
 * several threads at once, each on its own tables.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* world.round_px in doubles: floor(x + 0.5), or ceil(x - 0.5) below zero. */
static double round_px(double x) { return x >= 0.0 ? floor(x + 0.5) : ceil(x - 0.5); }

/* A node at (x, y) with no visits and the uniform prior; cp is c_puct
 * times that prior. */
static void init_node(Node *node, int32_t depth, double x, double y, double terminal_value, double stop_value,
                      double cp)
{
    int a;
    node->x = x;
    node->y = y;
    node->terminal_value = terminal_value;
    node->stop_value = stop_value;
    for (a = 0; a < N_ACTIONS; a++) {
        node->prior[a] = 1.0 / N_ACTIONS;
        node->cp[a] = cp;
        node->w[a] = 0.0;
        node->mean[a] = 0.0;
        node->n[a] = 0;
        node->children[a] = -1;
    }
    node->total = 0;
    node->scale = 0.0;
    node->depth = depth;
}

/* The PUCT score of the node's action a, q + cp * scale / (1 + n), where
 * scale is the node's sqrt(total); an unvisited edge's term is cp * scale,
 * its value divided by 1. */
static inline double puct(const Node *node, int a, double scale)
{
    const double explore = node->cp[a] * scale;
    return node->mean[a] + (node->n[a] ? explore / (double)(node->n[a] + 1) : explore);
}

/* The agent's move from (*x, *y) by the action's (dx, dy) in moves,
 * clamped to the grid [0, width - 1] x [0, height - 1]: the search's
 * expansion and the episode's step. Returns 0, or ERR_NAN_POS where the
 * position is NaN. */
static int move(const Search *search, int64_t action, double *x, double *y)
{
    const double max_x = (double)(search->width - 1), max_y = (double)(search->height - 1);
    *x += search->moves[2 * action];
    *y += search->moves[2 * action + 1];
    if (*x < 0.0)
        *x = 0.0;
    else if (*x > max_x)
        *x = max_x;
    if (*y < 0.0)
        *y = 0.0;
    else if (*y > max_y)
        *y = max_y;
    return isnan(*x) || isnan(*y) ? ERR_NAN_POS : 0;
}

/* The bits of a double: the prior table compares keys by them, never by
 * ==, which takes -0.0 for 0.0 although atan2 tells them apart. */
static uint64_t bits_of(double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    return bits;
}

/* mcts.goal_prior into prior, toward the frame's goal estimate, through
 * the search's direct-mapped prior table. A hit copies the slot's priors;
 * a miss computes them and stores them in the slot, over whatever key was
 * there. A prior whose exp overflows stores nothing. No goal and a zero
 * offset, (+-0, +-0), leave the uniform prior before any lookup, so an
 * all-zero slot matches no key and a zeroed table is empty. */
static int goal_prior(double x, double y, const Frame *frame, const Search *search, double *prior)
{
    const double kappa = search->kappa;
    double weights[N_ACTIONS], dx, dy, theta, total = 0.0;
    uint64_t key_dx, key_dy, key_kappa, hash;
    Prior *slot;
    int a;
    if (isnan(frame->goal_x))
        return 0;
    dx = frame->goal_x - x;
    dy = frame->goal_y - y;
    if (dx == 0.0 && dy == 0.0)
        return 0;
    key_dx = bits_of(dx);
    key_dy = bits_of(dy);
    key_kappa = bits_of(kappa);
    /* The slot: the key's bits mixed by murmur3's 64-bit finalizer. */
    hash = key_dx ^ (key_dy * 0x9e3779b97f4a7c15u) ^ (key_kappa * 0xc2b2ae3d27d4eb4fu);
    hash ^= hash >> 33;
    hash *= 0xff51afd7ed558ccdu;
    hash ^= hash >> 33;
    hash *= 0xc4ceb9fe1a85ec53u;
    hash ^= hash >> 33;
    slot = &search->priors[hash & (uint64_t)(search->n_priors - 1)];
    if (slot->dx == key_dx && slot->dy == key_dy && slot->kappa == key_kappa) {
        memcpy(prior, slot->prior, sizeof slot->prior);
        return 0;
    }
    theta = atan2(dy, dx);
    for (a = 0; a < N_ACTIONS; a++) {
        weights[a] = exp(kappa * cos(a * M_PI / 4.0 - theta));
        if (isinf(weights[a]))
            return ERR_OVERFLOW;
        total += weights[a];
    }
    for (a = 0; a < N_ACTIONS; a++)
        prior[a] = weights[a] / total;
    slot->dx = key_dx;
    slot->dy = key_dy;
    slot->kappa = key_kappa;
    memcpy(slot->prior, prior, sizeof slot->prior);
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
    const double c_puct = search->c_puct, beta = search->beta, uniform_cp = c_puct * (1.0 / N_ACTIONS);
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
    init_node(&nodes[0], 0, search->x0, search->y0, NAN, NAN, uniform_cp);
    for (rollout = 0; rollout < search->n_rollouts; rollout++) {
        int32_t row = 0;
        int length = 0, i;
        double value;
        for (;;) {
            Node *node = &nodes[row];
            int action = 0, a;
            int32_t child_row;
            if (node->total) {
                /* PUCT: q + c * p * sqrt(total) / (1 + n), read as
                 * q + cp * scale / (1 + n), an unvisited edge's without the
                 * division by 1; a strict > keeps ties at the lowest index. */
                const double scale = node->scale;
                double best = puct(node, 0, scale);
                for (a = 1; a < N_ACTIONS; a++) {
                    const double score = puct(node, a, scale);
                    if (score > best) {
                        best = score;
                        action = a;
                    }
                }
            } else {
                /* The first rollout through the node: with every q 0 and
                 * scale 1 the pick is the first argmax of cp. */
                if (goal_prior(node->x, node->y, &frames[node->depth], search, node->prior))
                    return ERR_OVERFLOW;
                for (a = 0; a < N_ACTIONS; a++) {
                    node->cp[a] = c_puct * node->prior[a];
                    if (node->cp[a] > node->cp[action])
                        action = a;
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
                double x = node->x, y = node->y, px, py, terminal_value = NAN, stop_value = NAN;
                if (move(search, action, &x, &y))
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
                init_node(&nodes[count], depth, x, y, terminal_value, stop_value, uniform_cp);
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
            node->scale = sqrt((double)node->total);
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
        return ERR_SELECT_MEMORY;
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

/* The planner's action at time t from (x, y): a search over the window of
 * frames, then the temperature pick from the root's visits on the time's
 * draw. The window is the model's frames, or with none the timeline's,
 * simulated first up to the window's last; a frame that fails to simulate
 * counts as a decision, as the model's predict raised there. Returns the
 * action or an ERR_*. */
static int64_t plan(Play *play, Frame *window, int64_t t, double x, double y)
{
    Search search = play->search;
    const Frame *frames = play->frames;
    int64_t d, count;
    play->decisions++;
    if (frames == NULL) {
        Timeline *const timeline = play->timeline;
        if ((count = lanenav_advance(timeline, t + play->first + play->stride * (search.k - 1))) < 0)
            return count;
        for (d = 0; d < search.k; d++)
            window[d] = timeline->records[t + play->first + play->stride * d];
        frames = window;
    }
    search.x0 = x;
    search.y0 = y;
    if ((count = lanenav_search(&search, frames)) < 0)
        return count;
    return lanenav_select(search.nodes[0].n, N_ACTIONS, play->temperature, play->uniforms[t]);
}

/* Play steps from time play->t until one ends the episode (PLAY_ENDED), the
 * given steps end at time n_given (PLAY_STOPPED), or an ERR_* of the frame
 * loop, the search or the pick. Per step: the action is the given one, or
 * the planner's on the frames of its window; the agent moves by it as the
 * search's expansion moves (move); its outcome is read from the pixel it
 * lands on in the palette frame of time t + 1, which the timeline simulates
 * where it is not there yet: the goal, an obstacle, then the step limit. An
 * ERR_* of that landing frame leaves the step's action in pending. A step's
 * frames are simulated in the order the Python loop asked for them: the
 * decision's window, then the frame it lands in. */
int64_t lanenav_play(Play *play)
{
    Frame window[MAX_DEPTH];
    const int64_t width = play->search.width;
    int64_t t = play->t;
    double x = t ? play->steps[t - 1].x : play->search.x0, y = t ? play->steps[t - 1].y : play->search.y0;

    if (play->actions == NULL && (play->search.k < 1 || play->search.k > MAX_DEPTH))
        return ERR_DEPTH;
    for (;;) {
        int64_t action, kind, code;
        uint8_t cell;
        if (t >= play->n_given)
            return PLAY_STOPPED;
        if (play->actions != NULL)
            action = play->actions[t];
        else if ((action = plan(play, window, t, x, y)) < 0)
            return action;
        if (action < 0 || action >= N_ACTIONS)
            return ERR_ACTION;
        if ((code = lanenav_advance(play->timeline, t + 1)) < 0) {
            play->pending = action;
            return code;
        }
        if (move(&play->search, action, &x, &y))
            return ERR_NAN_POS;
        cell = play->timeline->palettes[t + 1][(int64_t)floor(y + 0.5) * width + (int64_t)floor(x + 0.5)];
        t++;
        kind = cell == GOAL ? GOAL_REACHED : cell ? DIED : t >= play->max_steps ? TIMED_OUT : RUNNING;
        play->steps[t - 1] = (Step){x, y, action, kind};
        play->t = t;
        if (kind != RUNNING)
            return PLAY_ENDED;
    }
}
