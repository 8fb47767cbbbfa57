/* The particle engine: kinetics.run() calls kc_run() for the event loop,
 * kc_observe() to fly every particle to a sample time and copy it out, in
 * one pass, and kc_sum() for each snapshot's kinetic total.  The same
 * library holds the oracle's pair process, kc_pair_system() (after the
 * engine, before kc_sum).
 *
 * Four channels on competing exponential clocks, thinned against constant
 * bounds: unary type changes, slow binary reactions, fast binary (Kac)
 * collisions and bath exchange.  The two pair channels share one rule,
 * binary_event(): a Kac collision is a slow reaction under the identity
 * type kernel, with its own rate table.  split() redraws a pair's energy
 * and fly() moves a particle at the speed of its energy.  kc_run works in
 * place on the state's buffers (its columns, counters and bath sum), and
 * kc_observe on its position and flight-clock columns.  The file must be
 * built without FMA contraction or -ffast-math: tests/fingerprints.json
 * pins each expression's rounding.
 *
 * Variates come from seven streams of `block` doubles each, read in order;
 * the particle and partner streams hold integers, exact below 2^53.
 * When a stream runs out, kc_fill() draws its next block on the run's numpy
 * Generator, through its bitgen_t, with the C functions that the Generator's
 * own methods call (numpy's libnpyrandom.a, linked into this library): the
 * blocks are bit for bit those of the numpy calls, drawn in the same order.
 * Plug-in rates are Python callbacks, which also check the rates against
 * their thinning bounds.  A callback returns nonzero when it raised; kc_run
 * then returns KC_CALLBACK and Python re-raises.
 *
 * kc_run returns KC_STOP when the next proposal time reaches t_stop, with
 * that time in t_next; the next call resumes from it without a new draw.
 *
 * With `record` set, kc_run appends each accepted event to `log`, which run()
 * copies into its EventLog once, when the run ends.
 */
#include <math.h>
#include <stdbool.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* KC_NO_PARTNER: the partner stream asked for at n < 2; KC_FSUM: a buffer
 * that kc_sum hands back to math.fsum */
enum { KC_DONE, KC_STOP, KC_CALLBACK, KC_NO_MEMORY, KC_NO_PARTNER, KC_FSUM };
enum { WAITING, UNIFORM, PARTICLE, PARTNER, SPLIT, BATH, NORMAL, N_STREAMS };
enum { UNARY, SLOW, FAST, HEAT };

/* numpy's bitgen_t, field for field as numpy/random/bitgen.h declares it,
 * and the samplers of numpy/random/distributions.h that the Generator's
 * methods call.  That header includes Python.h, which strict C99 refuses. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

void random_standard_exponential_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
void random_standard_uniform_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
double random_standard_uniform(bitgen_t *bitgen_state);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                                intptr_t cnt, bool use_masked, uint64_t *out);
double random_beta(bitgen_t *bitgen_state, double a, double b);
double random_gamma(bitgen_t *bitgen_state, double shape, double scale);
int64_t random_poisson(bitgen_t *bitgen_state, double lam);
uint64_t random_bounded_uint64(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                               uint64_t mask, bool use_masked);

/* unary_fn stores the rate of j -> j1 in rates[j1] for every j1 != j */
typedef int (*unary_fn)(int64_t j, double T, double *rates);
typedef int (*slow_fn)(int64_t a, int64_t b, double Ta, double Tb, double *rate);

/* One accepted event, field for field a row of kinetics.EventLog.  j < 0
 * marks a one-particle event, whose second participant's fields are 0. */
typedef struct {
    double time;
    int64_t channel, i, j, type_before;
    double T_before;
    int64_t type_after;
    double T_after;
    int64_t type2_before;
    double T2_before;
    int64_t type2_after;
    double T2_after;
} Event;

/* C99 static assertions: EventLog reads rows of twelve 8-byte words, field
 * k of its columns at byte 8 * k */
typedef char event_is_twelve_words[sizeof(Event) == 12 * sizeof(int64_t) ? 1 : -1];
#define EVENT_WORD(field, k) typedef char event_##field##_is_word_##k[ \
    offsetof(Event, field) == 8 * (k) && sizeof ((Event *)0)->field == 8 ? 1 : -1]
EVENT_WORD(time, 0);
EVENT_WORD(channel, 1);
EVENT_WORD(i, 2);
EVENT_WORD(j, 3);
EVENT_WORD(type_before, 4);
EVENT_WORD(T_before, 5);
EVENT_WORD(type_after, 6);
EVENT_WORD(T_after, 7);
EVENT_WORD(type2_before, 8);
EVENT_WORD(T2_before, 9);
EVENT_WORD(type2_after, 10);
EVENT_WORD(T2_after, 11);
#undef EVENT_WORD

typedef struct {
    /* set by run() */
    int64_t n, n_types, track, record, table_kernel, block;
    double R_total, c1, c2, c3, ubar, bmax, fmax, box_side, bath_scale;
    const double *K, *mass, *unary, *slow, *fast;  /* J, J, J*J, J*J, J*J */
    const int64_t *out_start;     /* J*J + 1 offsets into out_types / out_prob */
    const int64_t *out_types;     /* 0-based outcome pairs */
    const double *out_prob;
    int64_t *types;
    double *T, *x, *y, *z, *dirx, *diry, *dirz, *last_t;
    int64_t *props, *accs, *noops;  /* 4 per-channel counters each */
    double *q;                    /* bath sum q[0] + q[1], Neumaier compensated */
    double *rates;                /* J scratch values */
    double *buf;                  /* N_STREAMS rows of block values */
    int64_t pos[N_STREAMS];
    bitgen_t *bitgen;             /* the run's Generator */
    unary_fn unary_fn;            /* NULL: threshold rates from unary */
    slow_fn slow_fn;              /* NULL: constant rates from slow */
    /* advanced by kc_run, as are the particle columns, counters and bath sum */
    double t, t_next, t_stop;
    int64_t n_left, resume;
    Event *log;
    int64_t log_len, log_cap;
} Run;

/* The next m variates of stream k into out, as numpy's Generator draws
 * them: standard_exponential(m), random(m), integers(n, size=m),
 * integers(n - 1, size=m), beta(1.5, 1.5, m), gamma(1.5, bath_scale, m) and
 * standard_normal(m), the integers as doubles.  Beta(3/2, 3/2) is the
 * conditional law of X1/(X1+X2) for i.i.d. energies with density
 * c sqrt(x) exp(-beta x): the one split law of the fast, slow-binary and
 * heat channels.  Returns KC_NO_PARTNER for the partner stream at n < 2,
 * whose bound n - 2 would wrap. */
int kc_fill(bitgen_t *bg, int64_t k, int64_t n, double bath_scale, int64_t m, double *out)
{
    int64_t i;
    switch (k) {
    case WAITING:
        random_standard_exponential_fill(bg, m, out);
        break;
    case UNIFORM:
        random_standard_uniform_fill(bg, m, out);
        break;
    case PARTICLE:
    case PARTNER:
        if (k == PARTNER && n < 2)
            return KC_NO_PARTNER;
        /* integers in place of the doubles, each read by memcpy before the
         * double overwrites it */
        random_bounded_uint64_fill(bg, 0, (uint64_t)(n - 1 - (k == PARTNER)), m, false,
                                   (uint64_t *)out);
        for (i = 0; i < m; i++) {
            uint64_t v;
            memcpy(&v, out + i, sizeof v);
            out[i] = (double)v;
        }
        break;
    case SPLIT:
        for (i = 0; i < m; i++)
            out[i] = random_beta(bg, 1.5, 1.5);
        break;
    case BATH:
        for (i = 0; i < m; i++)
            out[i] = random_gamma(bg, 1.5, bath_scale);
        break;
    default:
        random_standard_normal_fill(bg, m, out);
    }
    return KC_DONE;
}

/* inline: every draw passes here, and gcc -O2 would call it */
static inline int next_value(Run *r, int k, double *v)
{
    if (r->pos[k] == r->block) {
        int rc = kc_fill(r->bitgen, k, r->n, r->bath_scale, r->block, r->buf + k * r->block);
        if (rc)
            return rc;
        r->pos[k] = 0;
    }
    *v = r->buf[k * r->block + r->pos[k]++];
    return KC_DONE;
}

#define CHECK(call) do { int rc_ = (call); if (rc_) return rc_; } while (0)
#define DRAW(k, v) CHECK(next_value(r, k, &(v)))

/* Python's float % for a positive L, then the fold of L itself back to 0.
 * On [0, 2L), where a flight mostly lands, that is v or v - L, and fmod
 * gives the same bits: v - L is exact for L <= v < 2L by Sterbenz's lemma.
 * Below 0, from 2L on and for NaN, fmod. */
static double wrap(double v, double L)
{
    double m;
    if (v >= 0.0 && v < L)
        return v + 0.0;         /* + 0.0 turns -0.0 into 0.0 */
    if (v >= L && v < 2.0 * L)
        return v - L;
    m = fmod(v, L) + 0.0;       /* and fmod's -0.0 too */
    if (m < 0.0)
        m += L;
    return m != L ? m : 0.0;
}

/* The speed of kinetic energy e at mass m: sqrt(2*e/m), and sqrt(e/m)*sqrt(2)
 * only where 2*e/m overflows (e above about 9e307). */
static double speed(double e, double m)
{
    double v = 2.0 * e / m;
    return isinf(v) ? sqrt(e / m) * sqrt(2.0) : sqrt(v);
}

/* Fly particle i to time t on its current velocity: the speed of its energy
 * and type's mass, x + s*d*dt per axis, then wrap onto the torus.  A particle
 * already at t keeps its bits. */
static void fly(Run *r, int64_t i, double t)
{
    double dt = t - r->last_t[i];
    if (dt != 0.0) {
        double s = speed(r->T[i], r->mass[r->types[i]]), L = r->box_side;
        r->x[i] = wrap(r->x[i] + s * r->dirx[i] * dt, L);
        r->y[i] = wrap(r->y[i] + s * r->diry[i] * dt, L);
        r->z[i] = wrap(r->z[i] + s * r->dirz[i] * dt, L);
        r->last_t[i] = t;
    }
}

/* Observe every particle at time t, in one pass: a tracked particle flies
 * to t; then, when positions is given, its (x, y, z) fills row i of that
 * (n, 3) array, and when types is given, types[i] gets its 1-based type,
 * energies[i] its energy and counts (J entries) one more of its type.  With
 * every output NULL, only the flight is left. */
void kc_observe(Run *r, double t, int64_t *types, double *energies, double *positions,
                int64_t *counts)
{
    if (types != NULL)
        memset(counts, 0, (size_t)r->n_types * sizeof *counts);
    for (int64_t i = 0; i < r->n; i++) {
        if (r->track)
            fly(r, i, t);
        if (positions != NULL) {
            positions[3 * i] = r->x[i];
            positions[3 * i + 1] = r->y[i];
            positions[3 * i + 2] = r->z[i];
        }
        if (types != NULL) {
            types[i] = r->types[i] + 1;
            energies[i] = r->T[i];
            counts[r->types[i]]++;
        }
    }
}

/* Give particle i type a and energy e.  A tracked particle first flies to
 * the event time on its old velocity, then gets a direction uniform on the
 * sphere. */
static int set_particle(Run *r, int64_t i, int64_t a, double e)
{
    if (r->track)
        fly(r, i, r->t);
    r->types[i] = a;
    r->T[i] = e;
    if (!r->track)
        return KC_DONE;
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

static int log_event(Run *r, int64_t channel, int64_t i, int64_t j,
                     int64_t a, double Ta, int64_t a1, double Ta1,
                     int64_t b, double Tb, int64_t b1, double Tb1)
{
    if (r->log_len == r->log_cap) {
        int64_t cap = r->log_cap ? 2 * r->log_cap : 1024;
        Event *log = realloc(r->log, (size_t)cap * sizeof *log);
        if (log == NULL)
            return KC_NO_MEMORY;
        r->log = log;
        r->log_cap = cap;
    }
    r->log[r->log_len++] = (Event){r->t, channel, i, j, a, Ta, a1, Ta1, b, Tb, b1, Tb1};
    return KC_DONE;
}

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
    CHECK(set_particle(r, i, target, T1));
    r->accs[UNARY]++;
    r->n_left--;
    if (r->record)
        return log_event(r, UNARY, i, -1, j0 + 1, Ti, target + 1, T1, 0, 0.0, 0, 0.0);
    return KC_DONE;
}

/* A pair event of channel ch.  A slow reaction has plug-in or table rates,
 * thinned against bmax, and draws its outcome pair from the type kernel; a
 * fast (Kac) collision is a slow reaction under the identity kernel with
 * the rates of `fast`, thinned against fmax.  Its shift is exactly 0, which
 * validate_spec guarantees by refusing energies whose sums overflow. */
static int binary_event(Run *r, int ch)
{
    int64_t J = r->n_types, i, j, a, b, j1, j1p;
    double Ti, Tj, rate, bound = ch == SLOW ? r->bmax : r->fmax, u, v, E, frac, t1, t2;
    r->props[ch]++;
    DRAW(PARTICLE, u);
    DRAW(PARTNER, v);
    i = (int64_t)u;
    j = (int64_t)v + ((int64_t)v >= i);
    a = r->types[i];
    b = r->types[j];
    Ti = r->T[i];
    Tj = r->T[j];
    if (ch == FAST)
        rate = r->fast[a * J + b];
    else if (r->slow_fn == NULL)
        rate = r->slow[a * J + b];
    else if (r->slow_fn(a, b, Ti, Tj, &rate))
        return KC_CALLBACK;
    if (rate < bound) {
        DRAW(UNIFORM, u);
        if (u * bound > rate)
            return KC_DONE;
    }
    j1 = a;
    j1p = b;
    if (ch == SLOW && r->table_kernel) {
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
        r->noops[ch]++;
        return KC_DONE;
    }
    DRAW(SPLIT, frac);
    split(E, frac, &t1, &t2);
    CHECK(set_particle(r, i, j1, t1));
    CHECK(set_particle(r, j, j1p, t2));
    r->accs[ch]++;
    r->n_left--;
    if (r->record)
        return log_event(r, ch, i, j, a + 1, Ti, j1 + 1, t1, b + 1, Tj, j1p + 1, t2);
    return KC_DONE;
}

static int heat_event(Run *r)
{
    int64_t i, a;
    double u, Ti, xi, frac, t1, t2, delta, s, *q = r->q;
    r->props[HEAT]++;
    DRAW(PARTICLE, u);
    i = (int64_t)u;
    Ti = r->T[i];
    /* the particle keeps its share of a split with a bath partner */
    DRAW(BATH, xi);
    DRAW(SPLIT, frac);
    split(Ti + xi, frac, &t1, &t2);
    /* Neumaier-compensated bath sum q[0] + q[1] */
    delta = t1 - Ti;
    s = q[0] + delta;
    if (fabs(q[0]) >= fabs(delta))
        q[1] += (q[0] - s) + delta;
    else
        q[1] += (delta - s) + q[0];
    q[0] = s;
    a = r->types[i];
    CHECK(set_particle(r, i, a, t1));
    r->accs[HEAT]++;
    r->n_left--;
    if (r->record)
        return log_event(r, HEAT, i, -1, a + 1, Ti, a + 1, t1, 0, 0.0, 0, 0.0);
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
            rc = binary_event(r, SLOW);
        else if (u < r->c3)
            rc = binary_event(r, FAST);
        else
            rc = heat_event(r);
        if (rc)
            return rc;
    }
    return KC_DONE;
}

void kc_free_log(Run *r)
{
    free(r->log);
    r->log = NULL;
    r->log_len = r->log_cap = 0;
}

/* -- the oracle's pair process --------------------------------------------
 *
 * oracle.simulate_pair_system() calls kc_pair_system() for the whole
 * trajectory.  A replica is the stream of numpy's default_rng(seed), bit for
 * bit: the SeedSequence entropy mix and generate_state (O'Neill's
 * seed_seq_fe design), PCG64 (XSL-RR 128/64, O'Neill 2014) seeded as numpy
 * seeds it (a port: libnpyrandom.a holds no seeding), and that archive's
 * own samplers on it, in the order of the Generator calls poisson(lam),
 * then random() per particle, then per event integers(n), integers(n - 1)
 * and random().  The bitgen_t gives next_uint64 and next_double as numpy's
 * PCG64 does, and next_uint32 with its buffering: the low half of a fresh
 * 64-bit output, then its high half.  The law and the kernel arrive as
 * row-major doubles, checked in Python first (oracle._distribution and
 * PairModel): no entry is negative, NaN or infinite.
 *
 * A state or outcome is drawn as the first index q whose cumulative value
 * is >= u.  The sums are nondecreasing, and cumulative() sets +inf from the
 * last positive entry on: that index is the number of entries < u, which
 * count_below counts over a whole table but its final entry, without an
 * exit that depends on u. */

/* word j of a little-endian key */
static uint32_t key_word(const unsigned char *key, int64_t j)
{
    const unsigned char *w = key + 4 * j;
    return w[0] | (uint32_t)w[1] << 8 | (uint32_t)w[2] << 16 | (uint32_t)w[3] << 24;
}

/* numpy's default_rng(seed): a SeedSequence pool of 4 words, hashmix and
 * mix as in bit_generator.pyx, and PCG64 seeded from
 * generate_state(4, uint64) = v0..v3 with initstate v0:v1 and initseq
 * v2:v3 (high:low 64-bit halves) */
__extension__ typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
    int has_uint32;             /* uinteger holds the next 32-bit output */
    uint32_t uinteger;
} PCG;

static uint32_t hashmix(uint32_t value, uint32_t *h)
{
    value ^= *h;
    *h *= 0x931e8875u;
    value *= *h;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ r >> 16;
}

static void pcg_step(PCG *g)
{
    g->state = g->state * ((u128)2549297995355413924ULL << 64 | 4865540595714422341ULL)
               + g->inc;
}

/* the entropy is the key's words; a pool of 4 mixes missing words as zeros,
 * and every word past the fourth into each pool word */
static void pcg_seed(PCG *g, const unsigned char *key, int64_t n_words)
{
    uint32_t pool[4], h = 0x43b0d7e5u;
    uint64_t v[4];
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < n_words ? key_word(key, i) : 0u, &h);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &h));
    for (int64_t src = 4; src < n_words; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(key_word(key, src), &h));
    h = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        uint32_t x = pool[i % 4] ^ h;
        h *= 0x58f38dedu;
        x *= h;
        x ^= x >> 16;
        v[i / 2] = i % 2 ? v[i / 2] | (uint64_t)x << 32 : x;
    }
    g->state = 0;
    g->inc = ((u128)v[2] << 64 | v[3]) << 1 | 1u;
    pcg_step(g);
    g->state += (u128)v[0] << 64 | v[1];
    pcg_step(g);
    g->has_uint32 = 0;
}

/* the XSL-RR output of the next state */
static uint64_t pcg_uint64(void *st)
{
    PCG *g = st;
    uint64_t x;
    unsigned rot;
    pcg_step(g);
    x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    rot = (unsigned)(g->state >> 122);
    return x >> rot | x << (-rot & 63u);
}

static uint32_t pcg_uint32(void *st)
{
    PCG *g = st;
    uint64_t x;
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    x = pcg_uint64(g);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(x >> 32);
    return (uint32_t)x;
}

/* the top 53 bits of an output */
static double pcg_double(void *st)
{
    return (pcg_uint64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* The running sums of p[0..m-1] into cum, added in order as np.cumsum adds
 * them, then +inf from the last positive entry on (the last entry if none
 * is): no draw passes it, and no draw that stops at or before it changes. */
static void cumulative(const double *p, int64_t m, double *cum)
{
    double acc = 0.0;
    int64_t last = m - 1;
    for (int64_t k = 0; k < m; k++) {
        acc += p[k];
        cum[k] = acc;
        if (p[k] > 0.0)
            last = k;
    }
    for (; last < m; last++)
        cum[last] = INFINITY;
}

/* the first index q with cum[q] >= u, for nondecreasing sums of m entries
 * that end in +inf: the number of the first m - 1 below u */
static inline int64_t count_below(const double *cum, int64_t m, double u)
{
    int64_t n = 0;
    for (int64_t q = 0; q < m - 1; q++)
        n += cum[q] < u;
    return n;
}

/* The pair process's event count for the seed whose words are key:
 * numpy's default_rng(seed).poisson(lam), the first draw of a replica.
 * Python checks 0 <= lam <= POISSON_LAM_MAX first. */
int64_t kc_event_count(const unsigned char *key, int64_t n_words, double lam)
{
    PCG pcg;
    bitgen_t bg = {&pcg, pcg_uint64, pcg_uint32, pcg_double, pcg_uint64};
    pcg_seed(&pcg, key, n_words);
    return random_poisson(&bg, lam);
}

/* One trajectory of n particles over n_states <= 256 states, left in the
 * bytes states[n]: initial states from the law mu0, then Poisson(lam) pair
 * events, each the ordered pair (i, j != i) and an outcome o of the kernel
 * row of (states[i], states[j]) (S*S rows of S*S outcomes, row-major), which
 * sets them to (o / S, o % S).  Each draw is the first cumulative value
 * >= u of the tables built here, found by count_below as a count; the
 * tables are freed before the return.  Returns KC_NO_MEMORY if they cannot
 * be allocated, else KC_DONE. */
int kc_pair_system(const unsigned char *key, int64_t n_words, int64_t n,
                   int64_t n_states, const double *mu0, const double *kernel,
                   double lam, uint8_t *states)
{
    PCG pcg;
    bitgen_t bg = {&pcg, pcg_uint64, pcg_uint32, pcg_double, pcg_uint64};
    int64_t S = n_states, m = S * S, n_events;
    double *cum0 = malloc((size_t)(S + m * m) * sizeof *cum0), *rows;
    if (!cum0)
        return KC_NO_MEMORY;
    rows = cum0 + S;
    cumulative(mu0, S, cum0);
    for (int64_t r = 0; r < m; r++)
        cumulative(kernel + r * m, m, rows + r * m);
    pcg_seed(&pcg, key, n_words);
    n_events = random_poisson(&bg, lam);
    for (int64_t p = 0; p < n; p++)
        states[p] = (uint8_t)count_below(cum0, S, random_standard_uniform(&bg));
    for (; n_events > 0; n_events--) {
        int64_t i = (int64_t)random_bounded_uint64(&bg, 0, (uint64_t)(n - 1), 0, false);
        int64_t k = (int64_t)random_bounded_uint64(&bg, 0, (uint64_t)(n - 2), 0, false);
        int64_t j = k < i ? k : k + 1;
        int64_t o = count_below(rows + (states[i] * S + states[j]) * m, m,
                                random_standard_uniform(&bg));
        states[i] = (uint8_t)(o / S);
        states[j] = (uint8_t)(o % S);
    }
    free(cum0);
    return KC_DONE;
}

/* -- exact sums ---------------------------------------------------------------
 *
 * kc_sum() writes the sum of n doubles, correctly rounded to nearest with
 * ties to even: the bits of Python's math.fsum (Shewchuk's partials), which
 * the tests pin it to.  It is a small superaccumulator in Neal's sense
 * ("Fast exact summation using small and large superaccumulators", 2015),
 * one bucket per biased exponent.  A finite double is m * 2^(e - 1075) with
 * |m| < 2^53 and e its biased exponent (1 for a subnormal), and bucket e
 * adds the signed m of every entry of exponent e.  A bucket has 128 bits:
 * n < 2^63 entries of |m| < 2^53 keep it below 2^116, so no bucket carries
 * before the end, for any n.  Then each bucket, shifted to its exponent,
 * adds into the 64-bit digits of one integer X = sum * 2^1074, which is
 * rounded once: the 64 bits of |X| from its top set bit down, with a sticky
 * 1 for any set bit below them, convert to double as |X| itself rounds
 * (IEEE conversion, to nearest with ties to even), and scaling by a power
 * of two is then exact.
 *
 * fsum raises or returns a special value for a NaN or infinite entry, and
 * raises OverflowError when one of its partial sums overflows, which
 * depends on the order of the entries.  kc_sum returns KC_FSUM without
 * writing *out for those inputs: for a NaN or infinite entry, and whenever n
 * entries of the largest exponent present could sum to 2^1021 or more.
 * Below that no partial sum of fsum's comes near 2^1024.  Python then calls
 * math.fsum on the same buffer. */

__extension__ typedef __int128 i128;

enum { SUM_EXPONENTS = 2048, SUM_DIGITS = 34 };  /* |X| < 2^2095: 33 digits and a sign */

/* the 64 bits of |X| from bit p up, with a sticky 1 for any set bit below p */
static uint64_t rounding_window(const uint64_t *digit, int64_t p)
{
    int64_t d = p >> 6, s = p & 63;
    uint64_t w = digit[d] >> s, below = 0;
    if (s) {
        w |= digit[d + 1] << (64 - s);
        below = digit[d] << (64 - s);
    }
    for (int64_t k = 0; k < d; k++)
        below |= digit[k];
    return w | (below != 0);
}

int kc_sum(const double *x, int64_t n, double *out)
{
    i128 bucket[SUM_EXPONENTS], acc[SUM_DIGITS], carry = 0;
    uint64_t digit[SUM_DIGITS], w;
    int64_t emax = 0, width = 0, top, p = 0, b = 63;
    bool negative;

    memset(bucket, 0, sizeof bucket);
    memset(acc, 0, sizeof acc);
    for (int64_t k = 0; k < n; k++) {
        uint64_t u;
        int64_t e, m;
        memcpy(&u, x + k, sizeof u);
        e = (int64_t)(u >> 52 & 0x7ff);
        m = (int64_t)(u & UINT64_C(0xfffffffffffff)) | (int64_t)(e != 0) << 52;
        e += e == 0;
        bucket[e] += u >> 63 ? -m : m;
        emax = e > emax ? e : emax;
    }
    for (uint64_t r = (uint64_t)n; r; r >>= 1)
        width++;
    if (emax + width > 2043)        /* n * 2^(emax - 1022) > 2^1021; a NaN or inf has 2047 */
        return KC_FSUM;

    /* bucket e is worth bucket[e] * 2^(e - 1) in X: three digits from
     * d = (e - 1) / 64 on, the third signed */
    for (int64_t e = 1; e <= emax; e++) {
        int64_t d = (e - 1) >> 6, s = (e - 1) & 63;
        u128 v = (u128)bucket[e];
        if (!bucket[e])
            continue;
        acc[d] += (uint64_t)(v << s);
        acc[d + 1] += (uint64_t)(v >> (64 - s));
        acc[d + 2] += (int64_t)(bucket[e] >> 64 >> (64 - s));
    }
    for (int64_t d = 0; d < SUM_DIGITS; d++) {
        i128 t = acc[d] + carry;
        digit[d] = (uint64_t)t;
        carry = t >> 64;
    }
    negative = carry < 0;
    if (negative) {                 /* |X|: the two's complement */
        bool one = true;
        for (int64_t d = 0; d < SUM_DIGITS; d++) {
            digit[d] = ~digit[d] + one;
            one = one && !digit[d];
        }
    }

    /* the window's lowest bit p: 0 while |X| < 2^64, where the conversion
     * is exact below 2^53 (X = 0 gives fsum's +0.0) and the sum is normal
     * above; else 63 below the top set bit */
    for (top = SUM_DIGITS - 1; top > 0 && !digit[top]; top--)
        ;
    if (top) {
        while (!(digit[top] >> b))
            b--;
        p = 64 * top + b - 63;
    }
    w = rounding_window(digit, p);
    *out = ldexp(negative ? -(double)w : (double)w, (int)(p - 1074));
    return KC_DONE;
}
