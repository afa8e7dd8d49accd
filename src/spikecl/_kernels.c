/* The training step's element-wise loops: the LIF membrane recursion, its
 * surrogate-gradient reverse recursion, the anchor's pull and Adam; and
 * the inter-spike-interval counters.  No loop stores spikes: they are
 * u >= theta, formed from the membrane where they are read.
 *
 * Every element goes through the operations of the numpy formulation kept
 * in tests/oracles.py, one IEEE double operation at a time and in the same
 * order, so the results are equal bit for bit.  That holds only when the
 * compiler neither fuses a multiply and an add (-ffp-contract=off) nor
 * reassociates (no fast-math flag); _build.py owns the flags.
 *
 * Arrays are C-contiguous; kernels.py checks shapes, dtypes and layout
 * before it passes a pointer, and passes a null pointer for an empty
 * array, which no loop reads.  An (N, H) slab is nh = N * H elements and a
 * (T, N, H) block stores timestep t at offset t * nh.  The time loops run
 * over BLOCK elements at a time, so an element's state stays in cache
 * while its timesteps pass.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define BLOCK 512

static ptrdiff_t block_len(ptrdiff_t lo, ptrdiff_t n)
{
    return n - lo < BLOCK ? n - lo : BLOCK;
}

/* u[t] = beta * u[t-1] + cur - theta * s[t-1];  s[t] = u[t] >= theta,
 * with u[-1] = s[-1] = 0.  cur is (N, H) and u is (T, N, H).  The spikes
 * are not stored: a caller forms them from u with the same comparison.
 * sbar (N, H) receives the spike count over the T steps divided once by
 * T: numpy's mean of bools, an exact count in float64 and one division.
 * The reset theta * s[t-1] is formed again from u[t-1], which is one
 * block back and still in cache; each spike is counted in a loop of its
 * own, which keeps the loop over doubles vectorized.  The count is
 * int32_t, so timesteps must be below 2^31. */
void lif_forward_const(const double *restrict cur, double *restrict u,
                       double *restrict sbar, ptrdiff_t nh,
                       ptrdiff_t timesteps, double beta, double theta)
{
    const double t_count = (double)timesteps;
    int32_t count[BLOCK];
    for (ptrdiff_t lo = 0; lo < nh; lo += BLOCK) {
        ptrdiff_t len = block_len(lo, nh);
        const double *c = cur + lo;
        for (ptrdiff_t j = 0; j < len; j++)
            count[j] = 0;
        for (ptrdiff_t t = 0; t < timesteps; t++) {
            double *ut = u + t * nh + lo;
            if (t == 0) {
                for (ptrdiff_t j = 0; j < len; j++) {
                    double x = 0.0 * beta;
                    x = x + c[j];
                    ut[j] = x - 0.0;
                }
            } else {
                const double *up = ut - nh;
                for (ptrdiff_t j = 0; j < len; j++) {
                    double p = up[j];
                    double x = p * beta;
                    x = x + c[j];
                    ut[j] = x - (p >= theta ? 1.0 : 0.0) * theta;
                }
            }
            for (ptrdiff_t j = 0; j < len; j++)
                count[j] += ut[j] >= theta;
        }
        for (ptrdiff_t j = 0; j < len; j++)
            sbar[lo + j] = (double)count[j] / t_count;
    }
}

/* Sum over t of dL/du[t], given the membrane u (T, N, H) and gsbar, dL/d
 * (mean spike count) (N, H).  The spike path feeds gsbar / T back at every
 * step and the reset path -theta times the next step's membrane gradient;
 * the threshold's derivative is the ATan pseudo-derivative
 * alpha / (2 * (1 + (pi / 2 * alpha * (u - theta))^2)). */
void lif_backward_sum(const double *restrict u,
                      const double *restrict gsbar, double *restrict total,
                      ptrdiff_t nh, ptrdiff_t timesteps, double beta,
                      double theta, double alpha)
{
    const double c = 0.5 * 3.141592653589793 * alpha;
    const double t_inv = 1.0 / (double)timesteps;
    double drive[BLOCK], du[BLOCK], sum[BLOCK];
    for (ptrdiff_t lo = 0; lo < nh; lo += BLOCK) {
        ptrdiff_t len = block_len(lo, nh);
        for (ptrdiff_t j = 0; j < len; j++) {
            drive[j] = gsbar[lo + j] * t_inv;
            du[j] = 0.0;
            sum[j] = 0.0;
        }
        for (ptrdiff_t t = timesteps - 1; t >= 0; t--) {
            const double *ut = u + t * nh + lo;
            for (ptrdiff_t j = 0; j < len; j++) {
                double g = ut[j] - theta;
                g = g * c;
                g = g * g;
                g = g + 1.0;
                g = g * 2.0;
                g = alpha / g;
                double ds = du[j] * theta;
                ds = drive[j] - ds;
                ds = ds * g;
                double d = du[j] * beta;
                d = d + ds;
                du[j] = d;
                sum[j] = sum[j] + d;
            }
        }
        for (ptrdiff_t j = 0; j < len; j++)
            total[lo + j] = sum[j];
    }
}

/* Adam's moments and delta over one segment of the flat vector, and the
 * segment's parameters p stepped by the delta: p = p + delta. */
static void adam_segment(const double *restrict grad, double *restrict m,
                         double *restrict v, double *restrict delta,
                         double *restrict p, ptrdiff_t n, double beta1,
                         double beta2, double eps, double neg_lr,
                         double bias1, double bias2)
{
    const double c1 = 1.0 - beta1;
    const double c2 = 1.0 - beta2;
    for (ptrdiff_t i = 0; i < n; i++) {
        double g = grad[i];
        double mi = m[i] * beta1;
        mi = mi + g * c1;
        double vi = v[i] * beta2;
        double gg = g * c2;
        gg = gg * g;
        vi = vi + gg;
        m[i] = mi;
        v[i] = vi;
        double d = mi / bias1;
        d = d * neg_lr;
        double r = vi / bias2;
        r = sqrt(r);
        r = r + eps;
        d = d / r;
        delta[i] = d;
        p[i] = p[i] + d;
    }
}

/* One Adam step over the trunk and one head, whose gradients lie back to
 * back in grad: n1 for w1, n2 for b1, n3 for w2 and n4 for b2.  Returns 1
 * and writes nothing if any gradient entry is not finite.  Otherwise the
 * moments m and v are updated in place, delta receives
 * -lr * mhat / (sqrt(vhat) + eps), where mhat = m / bias1 and
 * vhat = v / bias2, each parameter is stepped by its delta, and it
 * returns 0. */
int adam_apply(const double *restrict grad, double *restrict m,
               double *restrict v, double *restrict delta,
               double *restrict w1, ptrdiff_t n1, double *restrict b1,
               ptrdiff_t n2, double *restrict w2, ptrdiff_t n3,
               double *restrict b2, ptrdiff_t n4, double beta1, double beta2,
               double eps, double neg_lr, double bias1, double bias2)
{
    double *const params[4] = {w1, b1, w2, b2};
    const ptrdiff_t sizes[4] = {n1, n2, n3, n4};
    const ptrdiff_t n = n1 + n2 + n3 + n4;
    int finite = 1;
    for (ptrdiff_t i = 0; i < n; i++)
        finite &= isfinite(grad[i]) != 0;
    if (!finite)
        return 1;
    ptrdiff_t lo = 0;
    for (int k = 0; k < 4; k++) {
        adam_segment(grad + lo, m + lo, v + lo, delta + lo, params[k],
                     sizes[k], beta1, beta2, eps, neg_lr, bias1, bias2);
        lo += sizes[k];
    }
    return 0;
}

/* numpy's pairwise sum of d * d, d = w - a, over n elements, adding
 * d * s into g on the way: below 8 elements one running sum from -0.0,
 * up to 128 elements 8 running sums combined as a tree, and above that
 * two halves split at a multiple of 8. */
static double pull_row(const double *restrict w, const double *restrict a,
                       double *restrict g, ptrdiff_t n, double s)
{
    if (n < 8) {
        double res = -0.0;
        for (ptrdiff_t i = 0; i < n; i++) {
            double d = w[i] - a[i];
            g[i] = g[i] + d * s;
            res = res + d * d;
        }
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int k = 0; k < 8; k++) {
            double d = w[k] - a[k];
            g[k] = g[k] + d * s;
            r[k] = d * d;
        }
        ptrdiff_t i = 8;
        for (; i < n - n % 8; i += 8) {
            for (int k = 0; k < 8; k++) {
                double d = w[i + k] - a[i + k];
                g[i + k] = g[i + k] + d * s;
                r[k] = r[k] + d * d;
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            double d = w[i] - a[i];
            g[i] = g[i] + d * s;
            res = res + d * d;
        }
        return res;
    }
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    double lo = pull_row(w, a, g, n2, s);
    return lo + pull_row(w + n2, a + n2, g + n2, n - n2, s);
}

/* The quadratic anchor's pull on the trunk (w, b), (H, D) and (H,),
 * toward its snapshot (aw, ab), with per-neuron strengths scale (H,).
 * Adds (w - aw) * scale[i] into the rows of gw and scale[i] * (b - ab)
 * into gb, in place, and writes to sq (H,) each neuron's squared
 * displacement, sum_j (w - aw)^2 + (b - ab)^2, the row sum taken in
 * numpy's add.reduce order: 0.0 + the pairwise sum. */
void anchor_pull(const double *restrict w, const double *restrict b,
                 const double *restrict aw, const double *restrict ab,
                 const double *restrict scale, double *restrict gw,
                 double *restrict gb, double *restrict sq, ptrdiff_t hidden,
                 ptrdiff_t dim)
{
    for (ptrdiff_t i = 0; i < hidden; i++) {
        const ptrdiff_t row = i * dim;
        double sum = pull_row(w + row, aw + row, gw + row, dim, scale[i]);
        double db = b[i] - ab[i];
        gb[i] = gb[i] + scale[i] * db;
        sq[i] = (0.0 + sum) + db * db;
    }
}

/* Inter-spike-interval counters of a time-major (T, N, H) bool raster,
 * added into totals (4, H): spike counts, interval counts, interval sums
 * and sums of squared intervals.  Each of the nh = N * H elements keeps
 * its first and last spike time, its spike count and its sum of d * d
 * over the intervals d that close; c spikes make max(c - 1, 0) intervals
 * summing to last - first.  The loop over an element's timesteps has no
 * branch.  The counters are int32_t, exact for timesteps up to 2048:
 * each d * d formed is at most 2048^2, and the intervals of one element
 * add to at most 2047, so their squares add to at most 2047^2. */
void isi_raster_stats(const unsigned char *restrict spikes,
                      int64_t *restrict totals, ptrdiff_t nh,
                      ptrdiff_t hidden, ptrdiff_t timesteps)
{
    int32_t first[BLOCK], last[BLOCK], count[BLOCK], sq[BLOCK];
    for (ptrdiff_t lo = 0; lo < nh; lo += BLOCK) {
        ptrdiff_t len = block_len(lo, nh);
        for (ptrdiff_t j = 0; j < len; j++) {
            first[j] = -1;
            last[j] = -1;
            count[j] = 0;
            sq[j] = 0;
        }
        for (ptrdiff_t t = 0; t < timesteps; t++) {
            const unsigned char *st = spikes + t * nh + lo;
            const int32_t now = (int32_t)t;
            for (ptrdiff_t j = 0; j < len; j++) {
                int32_t fired = st[j] != 0;
                int32_t opened = last[j] >= 0;
                int32_t d = now - last[j];
                sq[j] += d * d * (fired & opened);
                first[j] = fired & !opened ? now : first[j];
                last[j] = fired ? now : last[j];
                count[j] += fired;
            }
        }
        ptrdiff_t h = lo % hidden;
        for (ptrdiff_t j = 0; j < len; j++) {
            totals[h] += count[j];
            totals[hidden + h] += count[j] > 0 ? count[j] - 1 : 0;
            totals[2 * hidden + h] += last[j] - first[j];
            totals[3 * hidden + h] += sq[j];
            h = h + 1 == hidden ? 0 : h + 1;
        }
    }
}
