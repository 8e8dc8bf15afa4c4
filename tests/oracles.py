"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (direct summations, textbook
recursions) and kept separate from the library code paths it checks.
"""

import numpy as np

from flowcast.kernelcore import KernelSpec, gram, kernel_vector, median_heuristic


def naive_dft(x):
    """O(L^2) direct DFT summation."""
    x = np.asarray(x, dtype=float)
    L = x.size
    out = np.zeros(L, dtype=complex)
    for k in range(L):
        for t in range(L):
            out[k] += x[t] * np.exp(-2j * np.pi * k * t / L)
    return out


def naive_gram(a, b, eff_bw):
    """Double-loop Gaussian Gram matrix."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            d2 = np.sum((a[i] - b[j]) ** 2)
            out[i, j] = np.exp(-d2 / (2.0 * eff_bw ** 2))
    return out


def exhaustive_median_bandwidth(samples):
    """Median of all pairwise squared distances, sqrt'ed."""
    samples = np.atleast_2d(samples)
    sq = []
    for i in range(samples.shape[0]):
        for j in range(i + 1, samples.shape[0]):
            sq.append(float(np.sum((samples[i] - samples[j]) ** 2)))
    return float(np.sqrt(np.median(sq)))


def mxm_kalman_gain(p_prior, o_mat, g_yy, kappa):
    """Textbook m x m form of the gain: P O' (G O P O' + kappa I_m)^-1."""
    inner = g_yy @ o_mat @ p_prior @ o_mat.T + kappa * np.eye(g_yy.shape[0])
    return np.linalg.solve(inner.T, o_mat @ p_prior).T


def distinct_rows(rows):
    """The rows that differ bit for bit from every earlier row, in order."""
    seen, kept = set(), []
    for row in rows:
        if row.tobytes() not in seen:
            seen.add(row.tobytes())
            kept.append(row)
    return np.array(kept)


def sum_per_centre(cols, y_train, centres):
    """Columns of cols, one per training pair, summed per kernel centre.

    Column i goes to the centre equal to y_train[i] bit for bit; each
    centre's columns are added in pair order.
    """
    position = {row.tobytes(): u for u, row in enumerate(centres)}
    out = np.zeros((cols.shape[0], len(centres)))
    for i, row in enumerate(y_train):
        out[:, position[row.tobytes()]] += cols[:, i]
    return out


class FullSpaceFilter:
    """Direct full-sample finite recursion, no inducing-point machinery.

    Implements m_t / S_t updates with T = (K_xx + lam_T I)^-1 K_xx',
    O = (K_xx + lam_O I)^-1 K_xx', the m x m gain solve, and the
    X O m_t reconstruction.  Noise V, the initial belief, kappa and the
    observation kernel are taken from the model under test (the
    recursion, not their estimation, is what this oracle pins down); the
    training states, successors and observations the model was learned
    from and the hyperparameters it was learned with come from the
    caller, since the model keeps only X O, one row per distinct
    observation and kappa.  The state kernel is the median heuristic of
    the training states (the default subset and seed) at
    hyper.state_bw_scale.
    """

    def __init__(self, model, x_pred, x_succ, y_train, hyper):
        self.model = model
        self.x_pred = x_pred
        self.y_train = y_train
        s_spec = state_kernel(x_pred, hyper)
        o_spec = model.obs_spec
        lam_t, lam_o = hyper.lambda_t, hyper.lambda_o
        self.kappa = model.kappa
        k_xx = gram(x_pred, x_pred, s_spec)
        k_xxp = gram(x_pred, x_succ, s_spec)
        self.g_yy = gram(y_train, y_train, o_spec)
        m = k_xx.shape[0]
        eye = np.eye(m)
        self.t_mat = np.linalg.solve(k_xx + lam_t * eye, k_xxp)
        self.o_mat = np.linalg.solve(k_xx + lam_o * eye, k_xxp)
        self.go = self.g_yy @ self.o_mat
        self.m = m

    def run(self, observed, horizon):
        """Alternate innovation/prediction through the prefix, then roll out.

        Returns (posterior means, posterior covs, gains, forecast means).
        """
        model = self.model
        mt = model.n1_prior.copy()
        st = model.p1_prior.copy()
        means, covs, gains = [], [], []
        for i, y in enumerate(np.atleast_2d(observed)):
            q = mxm_kalman_gain(st, self.o_mat, self.g_yy, self.kappa)
            k_y = kernel_vector(self.y_train, y, model.obs_spec)
            mt = mt + q @ (k_y - self.go @ mt)
            st = st - q @ self.go @ st
            st = 0.5 * (st + st.T)
            means.append(mt.copy())
            covs.append(st.copy())
            gains.append(q)
            if i + 1 < np.atleast_2d(observed).shape[0]:
                mt = self.t_mat @ mt
                st = self.t_mat @ st @ self.t_mat.T + model.v
                st = 0.5 * (st + st.T)
        forecast = []
        for _ in range(horizon):
            mt = self.t_mat @ mt
            forecast.append(mt.copy())
        return means, covs, gains, forecast

    def reconstruct(self, mt):
        return self.x_pred.T @ (self.o_mat @ mt)


def state_kernel(x_pred, hyper):
    """The state KernelSpec learning uses: the median heuristic of the
    training states at hyper.state_bw_scale."""
    return KernelSpec(bandwidth=median_heuristic(x_pred),
                      scale_factor=hyper.state_bw_scale)


class DampedRotation:
    """Criterion 3's linear-Gaussian system: a damped 2-d rotation
    x' = A x + w observed as y = C x + v, w and v Gaussian."""

    def __init__(self):
        theta = 0.25
        self.a = 0.99 * np.array([[np.cos(theta), -np.sin(theta)],
                                  [np.sin(theta), np.cos(theta)]])
        self.process_cov = 0.02 ** 2 * np.eye(2)
        self.obs_cov = 0.05 ** 2 * np.eye(2)
        self.c = np.eye(2)

    def simulate(self, steps, rng, x0):
        """States and observations of a trajectory of `steps` transitions."""
        xs = np.zeros((steps + 1, 2))
        xs[0] = x0
        ys = np.zeros((steps + 1, 2))
        for t in range(steps):
            xs[t + 1] = self.a @ xs[t] + rng.multivariate_normal(np.zeros(2),
                                                                 self.process_cov)
        for t in range(steps + 1):
            ys[t] = self.c @ xs[t] + rng.multivariate_normal(np.zeros(2), self.obs_cov)
        return xs, ys

    def training_pairs(self):
        """(x_pred, x_succ, y_train) of two 90-transition trajectories."""
        trajectories = [self.simulate(90, np.random.default_rng(100 + s),
                                      np.array([1.5, 0.0]) if s % 2 == 0
                                      else np.array([-1.0, 1.0]))
                        for s in range(2)]
        return (np.vstack([xs[:-1] for xs, _ in trajectories]),
                np.vstack([xs[1:] for xs, _ in trajectories]),
                np.vstack([ys[:-1] for _, ys in trajectories]))


class TextbookKalman:
    """Classical linear-Gaussian Kalman filter."""

    def __init__(self, a, c, process_cov, obs_cov, x0, p0):
        self.a, self.c = a, c
        self.q, self.r = process_cov, obs_cov
        self.x, self.p = x0.astype(float).copy(), p0.astype(float).copy()

    def step(self, y):
        s = self.c @ self.p @ self.c.T + self.r
        gain = self.p @ self.c.T @ np.linalg.inv(s)
        self.x = self.x + gain @ (y - self.c @ self.x)
        self.p = self.p - gain @ self.c @ self.p
        posterior = self.x.copy()
        self.x = self.a @ self.x
        self.p = self.a @ self.p @ self.a.T + self.q
        return posterior


def ar2_ramp_forecast(last, step, horizon):
    """Closed form continuation of a linear ramp under x_t = 2x_{t-1} - x_{t-2}."""
    return last + step * np.arange(1, horizon + 1)
