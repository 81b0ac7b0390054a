#include "thermal/spectral_solver.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/simd.hh"

namespace boreas
{

namespace
{

/** c = a * b for row-major 3x3 matrices. */
void
mul3(const double *a, const double *b, double *c)
{
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
            c[i * 3 + j] = a[i * 3 + 0] * b[0 * 3 + j] +
                           a[i * 3 + 1] * b[1 * 3 + j] +
                           a[i * 3 + 2] * b[2 * 3 + j];
        }
    }
}

/**
 * E = exp(M) for a 3x3 matrix by scaling-and-squaring with a Taylor
 * series. M is a stable RC system matrix times dt, so exp(M) and all
 * its squarings stay bounded; the scaling keeps the series argument
 * small enough that plain Taylor converges fast.
 */
void
expm3(const double *m, double *e)
{
    double norm = 0.0;
    for (int i = 0; i < 3; ++i) {
        const double row = std::fabs(m[i * 3]) +
                           std::fabs(m[i * 3 + 1]) +
                           std::fabs(m[i * 3 + 2]);
        norm = std::max(norm, row);
    }
    int s = 0;
    while (norm > 0.25 && s < 64) {
        norm *= 0.5;
        ++s;
    }
    const double scale = std::ldexp(1.0, -s);

    double a[9];
    for (int i = 0; i < 9; ++i)
        a[i] = m[i] * scale;

    // Taylor: E = I + A + A^2/2! + ...
    double term[9];
    for (int i = 0; i < 9; ++i) {
        term[i] = a[i];
        e[i] = a[i];
    }
    e[0] += 1.0;
    e[4] += 1.0;
    e[8] += 1.0;
    for (int k = 2; k <= 24; ++k) {
        double next[9];
        mul3(term, a, next);
        const double inv_k = 1.0 / k;
        double tnorm = 0.0;
        for (int i = 0; i < 9; ++i) {
            term[i] = next[i] * inv_k;
            e[i] += term[i];
            tnorm += std::fabs(term[i]);
        }
        if (tnorm < 1e-18)
            break;
    }

    for (int i = 0; i < s; ++i) {
        double sq[9];
        mul3(e, e, sq);
        for (int j = 0; j < 9; ++j)
            e[j] = sq[j];
    }
}

/**
 * Solve A X = B for 3x3 matrices (X, B row-major) by Gaussian
 * elimination with partial pivoting. A must be nonsingular — for the
 * mode-0 system the ambient leak guarantees it.
 */
void
solve3(const double *a_in, const double *b_in, double *x)
{
    double a[9];
    double b[9];
    for (int i = 0; i < 9; ++i) {
        a[i] = a_in[i];
        b[i] = b_in[i];
    }
    int perm[3] = {0, 1, 2};
    for (int col = 0; col < 3; ++col) {
        int piv = col;
        for (int r = col + 1; r < 3; ++r) {
            if (std::fabs(a[perm[r] * 3 + col]) >
                std::fabs(a[perm[piv] * 3 + col]))
                piv = r;
        }
        std::swap(perm[col], perm[piv]);
        const int pr = perm[col];
        boreas_assert(a[pr * 3 + col] != 0.0,
                      "singular mode-0 thermal system");
        for (int r = col + 1; r < 3; ++r) {
            const int rr = perm[r];
            const double f = a[rr * 3 + col] / a[pr * 3 + col];
            for (int c = col; c < 3; ++c)
                a[rr * 3 + c] -= f * a[pr * 3 + c];
            for (int c = 0; c < 3; ++c)
                b[rr * 3 + c] -= f * b[pr * 3 + c];
        }
    }
    for (int col = 0; col < 3; ++col) {
        for (int row = 2; row >= 0; --row) {
            const int rr = perm[row];
            double acc = b[rr * 3 + col];
            for (int c = row + 1; c < 3; ++c)
                acc -= a[rr * 3 + c] * x[c * 3 + col];
            x[row * 3 + col] = acc / a[rr * 3 + row];
        }
    }
}

/**
 * Dispatch the mode sweep through GCC's function multi-versioning on
 * x86-64 (common/simd.hh), with the DCT's clone list. The sweep is
 * per-lane multiplies and adds only, and the file is built with
 * -ffp-contract=off, so every clone produces the same bits
 * (DESIGN.md §9.6).
 */
BOREAS_TARGET_CLONES("avx512f", "avx2", "default") void
sweepModes(int nx, int ny, const double *__restrict lamX,
           const double *__restrict ly, double dd_base, double ddl,
           double a12, double a21, const double *__restrict ch,
           const double *__restrict sh, const double *__restrict g1,
           const double *__restrict g2, const double *__restrict ph,
           double *__restrict zsi, double *__restrict zsp)
{
    for (int kx = 0; kx < nx; ++kx) {
        // dd(lam) is affine, so fold the kx part into the base once.
        const double ddx = dd_base + ddl * lamX[kx];
        const int row = kx * ny;
        for (int ky = 0; ky < ny; ++ky) {
            const int m = row + ky;
            const double dd = ddx + ddl * ly[ky];
            const double si = zsi[m];
            const double sp = zsp[m];
            const double c = ch[m];
            const double s = sh[m];
            const double sdd = s * dd;
            const double p = ph[m];
            zsi[m] = (c + sdd) * si + (s * a12) * sp + g1[m] * p;
            zsp[m] = (s * a21) * si + (c - sdd) * sp + g2[m] * p;
        }
    }
}

} // namespace

SpectralThermalSolver::SpectralThermalSolver(const SpectralNetwork &net)
    : net_(net), n_(net.nx * net.ny),
      sqrtN_(std::sqrt(static_cast<double>(net.nx * net.ny))),
      dct_(net.nx, net.ny)
{
    boreas_assert(net_.cSi > 0.0 && net_.cSp > 0.0 &&
                  net_.sinkCapacitance > 0.0 &&
                  net_.sinkAmbientResistance > 0.0,
                  "bad spectral network constants");
    lamX_.resize(net_.nx);
    lamY_.resize(net_.ny);
    for (int kx = 0; kx < net_.nx; ++kx)
        lamX_[kx] = Dct2Plan::laplacianEigenvalue(kx, net_.nx);
    for (int ky = 0; ky < net_.ny; ++ky)
        lamY_[ky] = Dct2Plan::laplacianEigenvalue(ky, net_.ny);
    zSi_.assign(n_, 0.0);
    zSp_.assign(n_, 0.0);
    phat_.assign(n_, 0.0);
    tSink_ = net_.ambient;
}

void
SpectralThermalSolver::loadState(const std::vector<Celsius> &si,
                                 const std::vector<Celsius> &sp,
                                 Celsius sink)
{
    boreas_assert(si.size() == static_cast<size_t>(n_) &&
                  sp.size() == static_cast<size_t>(n_),
                  "state size mismatch");
    dct_.forward(si.data(), zSi_.data());
    dct_.forward(sp.data(), zSp_.data());
    tSink_ = sink;
}

void
SpectralThermalSolver::setPower(const std::vector<Watts> &cell_power)
{
    boreas_assert(cell_power.size() == static_cast<size_t>(n_),
                  "power size mismatch");
    dct_.forward(cell_power.data(), phat_.data());
}

void
SpectralThermalSolver::realizeSilicon(std::vector<Celsius> &si)
{
    si.resize(n_);
    dct_.inverse(zSi_.data(), si.data());
}

void
SpectralThermalSolver::realizeSpreader(std::vector<Celsius> &sp)
{
    sp.resize(n_);
    dct_.inverse(zSp_.data(), sp.data());
}

void
SpectralThermalSolver::solveSteadyState()
{
    // Modes m != 0:  (gsi, -gv; -gv, gsp) (zsi, zsp) = (phat, 0).
    const double gv = net_.gVert;
    for (int kx = 0; kx < net_.nx; ++kx) {
        for (int ky = 0; ky < net_.ny; ++ky) {
            const int m = kx * net_.ny + ky;
            if (m == 0)
                continue;
            const double lam = lamX_[kx] + lamY_[ky];
            const double gsi = net_.gLatSi * lam + gv;
            const double gsp = net_.gLatSp * lam + gv + net_.gSinkCell;
            const double z = phat_[m] * gsp / (gsi * gsp - gv * gv);
            zSi_[m] = z;
            zSp_[m] = gv * z / gsp;
        }
    }

    // Mode 0 (the field sums): all power P leaves through the sink, so
    // the sink sits P Ra above ambient and each layer's sum sits one
    // series drop above the next.
    const double p = phat_[0];
    tSink_ = net_.ambient + p * net_.sinkAmbientResistance;
    zSp_[0] = n_ * tSink_ + p / net_.gSinkCell;
    zSi_[0] = zSp_[0] + p / gv;
}

/**
 * Precompute the exact update coefficients for one dt.
 *
 * Mode m != 0 system matrix (states z = (zsi, zsp), drive b =
 * (phat/cSi, 0)):
 *
 *   A = [ -(gLatSi lam + gVert) / cSi            gVert / cSi        ]
 *       [  gVert / cSp   -(gLatSp lam + gVert + gSinkCell) / cSp    ]
 *
 * Both eigenvalues are real and negative (a12 a21 > 0 and the network
 * is dissipative), so exp(A dt) is evaluated overflow-safely from
 * ep = e^{(mu+q)dt}, en = e^{(mu-q)dt} with mu the mean of the
 * diagonal and q the eigenvalue half-spread. The affine part uses
 * F = A^-1 (E - I), of which only the first column is needed.
 *
 * Mode 0 couples the field sums to the sink. With the balanced sink
 * variable w = sqrt(n) tSink the 3x3 system is
 *
 *   d/dt [z0si]   [ -gv/cSi        gv/cSi                0          ]
 *        [z0sp] = [  gv/cSp  -(gv+gs)/cSp          gs sqrt(n)/cSp  ]
 *        [ w  ]   [  0       gs sqrt(n)/Csink  -(gs n + 1/Ra)/Csink]
 *
 * plus the drive (phat0/cSi, 0, sqrt(n) Ta / (Ra Csink)).
 */
void
SpectralThermalSolver::buildPlan(Seconds dt)
{
    const double gv = net_.gVert;
    const double gs = net_.gSinkCell;
    const double csi = net_.cSi;
    const double csp = net_.cSp;

    ch_.assign(n_, 1.0);
    sh_.assign(n_, 0.0);
    g1_.assign(n_, 0.0);
    g2_.assign(n_, 0.0);
    offDiag12_ = gv / csi;
    offDiag21_ = gv / csp;
    ddBase_ = 0.5 * (-gv / csi + (gv + gs) / csp);
    ddLam_ = 0.5 * (-net_.gLatSi / csi + net_.gLatSp / csp);

    for (int m = 1; m < n_; ++m) {
        const double lam = lamX_[m / net_.ny] + lamY_[m % net_.ny];
        const double a11 = -(net_.gLatSi * lam + gv) / csi;
        const double a12 = gv / csi;
        const double a21 = gv / csp;
        const double a22 = -(net_.gLatSp * lam + gv + gs) / csp;

        const double mu = 0.5 * (a11 + a22);
        const double dd = 0.5 * (a11 - a22);
        const double q = std::sqrt(dd * dd + a12 * a21);

        const double ep = std::exp((mu + q) * dt);
        const double en = std::exp((mu - q) * dt);
        const double ch = 0.5 * (ep + en);
        // sinh(q dt)/q, guarded against q dt -> 0 cancellation.
        const double sh = q * dt < 1e-8
            ? dt * std::exp(mu * dt) * (1.0 + q * q * dt * dt / 6.0)
            : (ep - en) / (2.0 * q);

        const double E11 = ch + sh * dd;
        const double E21 = sh * a21;

        // First column of F = A^-1 (E - I); det > 0 for every m != 0.
        const double det = a11 * a22 - a12 * a21;
        const double m11 = E11 - 1.0;
        const double m21 = E21;
        const double f11 = (a22 * m11 - a12 * m21) / det;
        const double f21 = (a11 * m21 - a21 * m11) / det;

        ch_[m] = ch;
        sh_[m] = sh;
        g1_[m] = f11 / csi;
        g2_[m] = f21 / csi;
    }

    // Mode 0.
    const double csink = net_.sinkCapacitance;
    const double ra = net_.sinkAmbientResistance;
    const double a0[9] = {
        -gv / csi, gv / csi, 0.0,
        gv / csp, -(gv + gs) / csp, gs * sqrtN_ / csp,
        0.0, gs * sqrtN_ / csink,
        -(gs * n_ + 1.0 / ra) / csink,
    };
    double a0dt[9];
    for (int i = 0; i < 9; ++i)
        a0dt[i] = a0[i] * dt;
    expm3(a0dt, e0_);

    double e0mi[9];
    for (int i = 0; i < 9; ++i)
        e0mi[i] = e0_[i];
    e0mi[0] -= 1.0;
    e0mi[4] -= 1.0;
    e0mi[8] -= 1.0;
    double f0[9];
    solve3(a0, e0mi, f0);
    c0_[0] = f0[0] / csi;
    c0_[1] = f0[3] / csi;
    c0_[2] = f0[6] / csi;
    const double amb = sqrtN_ * net_.ambient / (ra * csink);
    d0_[0] = f0[2] * amb;
    d0_[1] = f0[5] * amb;
    d0_[2] = f0[8] * amb;

    planDt_ = dt;
}

void
SpectralThermalSolver::step(Seconds dt)
{
    boreas_assert(dt > 0.0, "bad dt");
    if (dt != planDt_)
        buildPlan(dt);

    // Mode 0 rides through the sweep unchanged (ch = 1, sh = 0,
    // G = 0); the 3x3 sink update below advances it in place.
    sweepModes(net_.nx, net_.ny, lamX_.data(), lamY_.data(), ddBase_,
               ddLam_, offDiag12_, offDiag21_, ch_.data(), sh_.data(),
               g1_.data(), g2_.data(), phat_.data(), zSi_.data(),
               zSp_.data());

    const double z0 = zSi_[0];
    const double z1 = zSp_[0];
    const double z2 = sqrtN_ * tSink_;
    const double p0 = phat_[0];
    zSi_[0] = e0_[0] * z0 + e0_[1] * z1 + e0_[2] * z2 + c0_[0] * p0 +
              d0_[0];
    zSp_[0] = e0_[3] * z0 + e0_[4] * z1 + e0_[5] * z2 + c0_[1] * p0 +
              d0_[1];
    tSink_ = (e0_[6] * z0 + e0_[7] * z1 + e0_[8] * z2 + c0_[2] * p0 +
              d0_[2]) / sqrtN_;
}

} // namespace boreas
