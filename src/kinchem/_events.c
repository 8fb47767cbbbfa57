/* The particle engine: kinetics.run() calls kc_run() for the event loop and
 * kc_flush() to fly every particle to a sample time.
 *
 * Four channels on competing exponential clocks, thinned against constant
 * bounds: unary type changes, slow binary reactions, fast binary (Kac)
 * collisions and bath exchange; split() redraws a pair's energy and fly()
 * moves a particle.  The file must be built without FMA contraction or
 * -ffast-math: tests/fingerprints.json pins each expression's rounding.
 *
 * Variates come from seven streams of `block` doubles each, read in order;
 * the particle and partner streams hold integers, exact below 2^53.
 * When a stream runs out, refill(k) asks Python for its next block, so the
 * numpy Generator is drawn in the same order as a Python loop would draw
 * it.  Plug-in rates are Python callbacks too, which also check the rates
 * against their thinning bounds.  A callback returns nonzero when it raised;
 * kc_run then returns KC_CALLBACK and Python re-raises.
 *
 * kc_run returns KC_STOP when the next proposal time reaches t_stop, with
 * that time in t_next; the next call resumes from it without a new draw.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define LOG_INTS 7      /* channel, i, j, type_before, type_after, type2_before, type2_after */
#define LOG_DOUBLES 5   /* time, T_before, T_after, T2_before, T2_after */

enum { KC_DONE, KC_STOP, KC_CALLBACK, KC_NO_MEMORY };
enum { WAITING, UNIFORM, PARTICLE, PARTNER, SPLIT, BATH, NORMAL, N_STREAMS };
enum { UNARY, SLOW, FAST, HEAT };

typedef int (*refill_fn)(int64_t stream);
/* unary_fn stores the rate of j -> j1 in rates[j1] for every j1 != j */
typedef int (*unary_fn)(int64_t j, double T, double *rates);
typedef int (*slow_fn)(int64_t a, int64_t b, double Ta, double Tb, double *rate);

typedef struct {
    /* set by run() */
    int64_t n, n_types, track, record, table_kernel, block;
    double R_total, c1, c2, c3, ubar, bmax, fmax, box_side;
    const double *K, *mass, *unary, *slow, *fast;  /* J, J, J*J, J*J, J*J */
    const int64_t *out_start;     /* J*J + 1 offsets into out_types / out_prob */
    const int64_t *out_types;     /* 0-based outcome pairs */
    const double *out_prob;
    int64_t *types;
    double *T, *x, *y, *z, *dirx, *diry, *dirz, *spd, *last_t;
    double *rates;                /* J scratch values */
    double *buf;                  /* N_STREAMS rows of block values */
    int64_t pos[N_STREAMS];
    refill_fn refill;
    unary_fn unary_fn;            /* NULL: threshold rates from unary */
    slow_fn slow_fn;              /* NULL: constant rates from slow */
    /* advanced by kc_run */
    double t, t_next, t_stop, q, qc;
    int64_t n_left, resume;
    int64_t props[4], accs[4], noops[4];
    int64_t *log_i;
    double *log_d;
    int64_t log_len, log_cap;
} Run;

/* inline, as is pick_partner: every draw passes here, and gcc -O2 would call it */
static inline int next_value(Run *r, int k, double *v)
{
    if (r->pos[k] == r->block) {
        if (r->refill(k))
            return 1;
        r->pos[k] = 0;
    }
    *v = r->buf[k * r->block + r->pos[k]++];
    return 0;
}

#define DRAW(k, v) do { if (next_value(r, k, &(v))) return KC_CALLBACK; } while (0)

/* Python's float % for a positive L, then the fold of L itself back to 0. */
static double wrap(double v, double L)
{
    double m = fmod(v, L) + 0.0;  /* + 0.0 turns fmod's -0.0 into 0.0 */
    if (m < 0.0)
        m += L;
    return m != L ? m : 0.0;
}

/* Fly particle i to time t on its current velocity: x + s*d*dt per axis,
 * then wrap onto the torus.  A particle already at t keeps its bits. */
static void fly(Run *r, int64_t i, double t)
{
    double dt = t - r->last_t[i];
    if (dt != 0.0) {
        double s = r->spd[i], L = r->box_side;
        r->x[i] = wrap(r->x[i] + s * r->dirx[i] * dt, L);
        r->y[i] = wrap(r->y[i] + s * r->diry[i] * dt, L);
        r->z[i] = wrap(r->z[i] + s * r->dirz[i] * dt, L);
        r->last_t[i] = t;
    }
}

void kc_flush(Run *r, double t)
{
    for (int64_t i = 0; i < r->n; i++)
        fly(r, i, t);
}

/* Give particle i energy e.  A tracked particle first flies to the event
 * time on its old velocity, then gets the matching speed and a direction
 * uniform on the sphere. */
static int set_energy(Run *r, int64_t i, double e)
{
    r->T[i] = e;
    if (!r->track)
        return KC_DONE;
    fly(r, i, r->t);
    r->spd[i] = sqrt(2.0 * e / r->mass[r->types[i]]);
    for (;;) {
        double gx, gy, gz, n2;
        DRAW(NORMAL, gx);
        DRAW(NORMAL, gy);
        DRAW(NORMAL, gz);
        n2 = gx * gx + gy * gy + gz * gz;
        if (n2 > 1e-300) {
            double inv = 1.0 / sqrt(n2);
            r->dirx[i] = gx * inv;
            r->diry[i] = gy * inv;
            r->dirz[i] = gz * inv;
            return KC_DONE;
        }
    }
}

/* Split E at frac in [0, 1] as t1 + t2 == E bitwise, both >= 0; (0, 0) for
 * E <= 0.  By Sterbenz's lemma, t2 = E - fl(E*frac) is exact when
 * fl(E*frac) >= E/2, and otherwise t2 >= E/2 and t1 = E - t2 is exact. */
static void split(double E, double frac, double *t1, double *t2)
{
    if (E <= 0.0)
        E = 0.0;
    *t2 = E - E * frac;
    *t1 = E - *t2;
}

/* One event-log row; j < 0 marks a one-particle event. */
static int log_event(Run *r, int64_t channel, int64_t i, int64_t j,
                     int64_t a, double Ta, int64_t a1, double Ta1,
                     int64_t b, double Tb, int64_t b1, double Tb1)
{
    if (r->log_len == r->log_cap) {
        int64_t cap = r->log_cap ? 2 * r->log_cap : 1024;
        int64_t *li = realloc(r->log_i, (size_t)cap * LOG_INTS * sizeof *li);
        if (li == NULL)
            return KC_NO_MEMORY;
        r->log_i = li;
        double *ld = realloc(r->log_d, (size_t)cap * LOG_DOUBLES * sizeof *ld);
        if (ld == NULL)
            return KC_NO_MEMORY;
        r->log_d = ld;
        r->log_cap = cap;
    }
    int64_t *pi = r->log_i + r->log_len * LOG_INTS;
    double *pd = r->log_d + r->log_len * LOG_DOUBLES;
    pi[0] = channel; pi[1] = i; pi[2] = j; pi[3] = a; pi[4] = a1; pi[5] = b; pi[6] = b1;
    pd[0] = r->t; pd[1] = Ta; pd[2] = Ta1; pd[3] = Tb; pd[4] = Tb1;
    r->log_len++;
    return KC_DONE;
}

#define CHECK(call) do { int rc_ = (call); if (rc_) return rc_; } while (0)

static int unary_event(Run *r)
{
    int64_t J = r->n_types, i, j0, j1;
    double Ti, total = 0.0, u, pick, acc, T1;
    r->props[UNARY]++;
    DRAW(PARTICLE, u);
    i = (int64_t)u;
    j0 = r->types[i];
    Ti = r->T[i];
    if (r->unary_fn != NULL && r->unary_fn(j0, Ti, r->rates))
        return KC_CALLBACK;
    r->rates[j0] = 0.0;
    for (j1 = 0; j1 < J; j1++) {
        if (j1 == j0)
            continue;
        if (r->unary_fn == NULL)
            r->rates[j1] = Ti + r->K[j0] - r->K[j1] >= 0.0 ? r->unary[j0 * J + j1] : 0.0;
        total += r->rates[j1];
    }
    if (total <= 0.0)
        return KC_DONE;
    DRAW(UNIFORM, u);
    if (u * r->ubar > total)
        return KC_DONE;
    /* accepted: choose the target proportionally to the rates */
    DRAW(UNIFORM, u);
    pick = u * total;
    acc = 0.0;
    int64_t target = j0;
    for (j1 = 0; j1 < J; j1++) {
        acc += r->rates[j1];
        if (pick < acc) {
            target = j1;
            break;
        }
    }
    T1 = Ti + r->K[j0] - r->K[target];
    if (T1 < 0.0) {
        r->noops[UNARY]++;
        return KC_DONE;
    }
    r->types[i] = target;
    CHECK(set_energy(r, i, T1));
    r->accs[UNARY]++;
    r->n_left--;
    if (r->record)
        return log_event(r, UNARY, i, -1, j0 + 1, Ti, target + 1, T1, 0, 0.0, 0, 0.0);
    return KC_DONE;
}

static inline int pick_partner(Run *r, int64_t *i, int64_t *j)
{
    double u, v;
    DRAW(PARTICLE, u);
    DRAW(PARTNER, v);
    *i = (int64_t)u;
    *j = (int64_t)v + ((int64_t)v >= *i);
    return KC_DONE;
}

static int slow_event(Run *r)
{
    int64_t J = r->n_types, i, j, a, b, j1, j1p;
    double Ti, Tj, rate, u, E, frac, t1, t2;
    r->props[SLOW]++;
    CHECK(pick_partner(r, &i, &j));
    a = r->types[i];
    b = r->types[j];
    Ti = r->T[i];
    Tj = r->T[j];
    if (r->slow_fn == NULL)
        rate = r->slow[a * J + b];
    else if (r->slow_fn(a, b, Ti, Tj, &rate))
        return KC_CALLBACK;
    if (rate < r->bmax) {
        DRAW(UNIFORM, u);
        if (u * r->bmax > rate)
            return KC_DONE;
    }
    j1 = a;
    j1p = b;
    if (r->table_kernel) {
        int64_t o = r->out_start[a * J + b], end = r->out_start[a * J + b + 1];
        double acc = 0.0;
        DRAW(UNIFORM, u);
        for (; o < end; o++) {
            acc += r->out_prob[o];
            if (u < acc) {
                j1 = r->out_types[2 * o];
                j1p = r->out_types[2 * o + 1];
                break;
            }
        }
    }
    E = (Ti + Tj) + ((r->K[a] + r->K[b]) - (r->K[j1] + r->K[j1p]));
    if (E < 0.0) {
        r->noops[SLOW]++;
        return KC_DONE;
    }
    DRAW(SPLIT, frac);
    split(E, frac, &t1, &t2);
    r->types[i] = j1;
    r->types[j] = j1p;
    CHECK(set_energy(r, i, t1));
    CHECK(set_energy(r, j, t2));
    r->accs[SLOW]++;
    r->n_left--;
    if (r->record)
        return log_event(r, SLOW, i, j, a + 1, Ti, j1 + 1, t1, b + 1, Tj, j1p + 1, t2);
    return KC_DONE;
}

static int fast_event(Run *r)
{
    int64_t i, j, a, b;
    double fij, u, Ti, Tj, frac, t1, t2;
    r->props[FAST]++;
    CHECK(pick_partner(r, &i, &j));
    a = r->types[i];
    b = r->types[j];
    fij = r->fast[a * r->n_types + b];
    if (fij < r->fmax) {
        DRAW(UNIFORM, u);
        if (u * r->fmax > fij)
            return KC_DONE;
    }
    Ti = r->T[i];
    Tj = r->T[j];
    DRAW(SPLIT, frac);
    split(Ti + Tj, frac, &t1, &t2);
    CHECK(set_energy(r, i, t1));
    CHECK(set_energy(r, j, t2));
    r->accs[FAST]++;
    r->n_left--;
    if (r->record)
        return log_event(r, FAST, i, j, a + 1, Ti, a + 1, t1, b + 1, Tj, b + 1, t2);
    return KC_DONE;
}

static int heat_event(Run *r)
{
    int64_t i, a;
    double u, Ti, xi, frac, t1, t2, delta, s;
    r->props[HEAT]++;
    DRAW(PARTICLE, u);
    i = (int64_t)u;
    Ti = r->T[i];
    /* the particle keeps its share of a split with a bath partner */
    DRAW(BATH, xi);
    DRAW(SPLIT, frac);
    split(Ti + xi, frac, &t1, &t2);
    /* Neumaier-compensated bath sum q + qc */
    delta = t1 - Ti;
    s = r->q + delta;
    if (fabs(r->q) >= fabs(delta))
        r->qc += (r->q - s) + delta;
    else
        r->qc += (delta - s) + r->q;
    r->q = s;
    CHECK(set_energy(r, i, t1));
    r->accs[HEAT]++;
    r->n_left--;
    a = r->types[i] + 1;
    if (r->record)
        return log_event(r, HEAT, i, -1, a, Ti, a, t1, 0, 0.0, 0, 0.0);
    return KC_DONE;
}

int kc_run(Run *r)
{
    while (r->n_left) {
        double w, u;
        int rc;
        if (!r->resume) {
            if (r->R_total > 0.0) {
                DRAW(WAITING, w);
                r->t_next = r->t + w / r->R_total;
            } else {
                r->t_next = INFINITY;
            }
            if (r->t_next >= r->t_stop) {
                r->resume = 1;
                return KC_STOP;
            }
        }
        r->resume = 0;
        r->t = r->t_next;
        DRAW(UNIFORM, u);
        u = u * r->R_total;
        if (u < r->c1)
            rc = unary_event(r);
        else if (u < r->c2)
            rc = slow_event(r);
        else if (u < r->c3)
            rc = fast_event(r);
        else
            rc = heat_event(r);
        if (rc)
            return rc;
    }
    return KC_DONE;
}

void kc_free_log(Run *r)
{
    free(r->log_i);
    free(r->log_d);
    r->log_i = NULL;
    r->log_d = NULL;
    r->log_len = r->log_cap = 0;
}
