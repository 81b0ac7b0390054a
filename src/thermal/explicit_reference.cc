#include "thermal/explicit_reference.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace boreas
{

namespace
{

/** A node's Euler update t + s * flux (s = h/C), or its rate s * flux
 *  (s = 1/C). */
template <bool kAdvance>
inline double
store(double t, double s, double flux)
{
    return kAdvance ? t + s * flux : s * flux;
}

/**
 * One interior stencil row (all four neighbors exist): branch-free,
 * restrict-qualified, and kept a free function so the compiler can
 * prove independence and vectorize it. The floating-point operation
 * order matches the branchy edge formulation term for term, so the
 * fast path changes speed only, never results.
 */
template <bool kAdvance>
void
updateInteriorRow(const double *__restrict tsi_v,
                  const double *__restrict tsp_v,
                  double *__restrict nsi_v, double *__restrict nsp_v,
                  const double *__restrict pc_v, int row, int nx,
                  double g_si, double g_sp, double g_v, double g_sink,
                  double tsink, double inv_csi, double inv_csp)
{
    for (int i = row + 1; i < row + nx - 1; ++i) {
        const double tsi = tsi_v[i];
        const double tsp = tsp_v[i];

        double flux = pc_v[i] + g_v * (tsp - tsi);
        flux += g_si * (tsi_v[i - 1] - tsi);
        flux += g_si * (tsi_v[i + 1] - tsi);
        flux += g_si * (tsi_v[i - nx] - tsi);
        flux += g_si * (tsi_v[i + nx] - tsi);
        nsi_v[i] = store<kAdvance>(tsi, inv_csi, flux);

        double fsp = g_v * (tsi - tsp) + g_sink * (tsink - tsp);
        fsp += g_sp * (tsp_v[i - 1] - tsp);
        fsp += g_sp * (tsp_v[i + 1] - tsp);
        fsp += g_sp * (tsp_v[i - nx] - tsp);
        fsp += g_sp * (tsp_v[i + nx] - tsp);
        nsp_v[i] = store<kAdvance>(tsp, inv_csp, fsp);
    }
}

/**
 * One stencil sweep over every node from the state (tsi_v, tsp_v,
 * tsink) under cell power pc_v and the given ambient: each silicon and
 * spreader node's Euler update (kAdvance) or rate (see store()) goes
 * to nsi_v / nsp_v, and the sink's is returned. step() advances with
 * it; truncationBound() takes rates.
 */
template <bool kAdvance>
double
sweep(const SpectralNetwork &net, double inv_csi, double inv_csp,
      double inv_csink, const double *tsi_v, const double *tsp_v,
      double tsink, const double *pc_v, Celsius ambient, double *nsi_v,
      double *nsp_v)
{
    const int nx = net.nx;
    const int ny = net.ny;
    const double g_si = net.gLatSi;
    const double g_sp = net.gLatSp;
    const double g_v = net.gVert;
    const double g_sink = net.gSinkCell;

    // Boundary cells: a missing neighbor is simply omitted (the
    // Neumann condition the DCT basis matches).
    auto edge_cell = [&](int x, int y, int i) {
        const double tsi = tsi_v[i];
        const double tsp = tsp_v[i];

        double flux = pc_v[i] + g_v * (tsp - tsi);
        if (x > 0)
            flux += g_si * (tsi_v[i - 1] - tsi);
        if (x < nx - 1)
            flux += g_si * (tsi_v[i + 1] - tsi);
        if (y > 0)
            flux += g_si * (tsi_v[i - nx] - tsi);
        if (y < ny - 1)
            flux += g_si * (tsi_v[i + nx] - tsi);
        nsi_v[i] = store<kAdvance>(tsi, inv_csi, flux);

        double fsp = g_v * (tsi - tsp) + g_sink * (tsink - tsp);
        if (x > 0)
            fsp += g_sp * (tsp_v[i - 1] - tsp);
        if (x < nx - 1)
            fsp += g_sp * (tsp_v[i + 1] - tsp);
        if (y > 0)
            fsp += g_sp * (tsp_v[i - nx] - tsp);
        if (y < ny - 1)
            fsp += g_sp * (tsp_v[i + nx] - tsp);
        nsp_v[i] = store<kAdvance>(tsp, inv_csp, fsp);
    };

    for (int x = 0; x < nx; ++x)
        edge_cell(x, 0, x);

    for (int y = 1; y < ny - 1; ++y) {
        const int row = y * nx;
        edge_cell(0, y, row);
        updateInteriorRow<kAdvance>(tsi_v, tsp_v, nsi_v, nsp_v, pc_v, row,
                                    nx, g_si, g_sp, g_v, g_sink, tsink,
                                    inv_csi, inv_csp);
        edge_cell(nx - 1, y, row + nx - 1);
    }

    const int last_row = (ny - 1) * nx;
    for (int x = 0; x < nx; ++x)
        edge_cell(x, ny - 1, last_row + x);

    // Sink node, accumulated in row-major order.
    double sink_flux = 0.0;
    for (int i = 0; i < nx * ny; ++i)
        sink_flux += g_sink * (tsp_v[i] - tsink);
    sink_flux += (ambient - tsink) / net.sinkAmbientResistance;
    return store<kAdvance>(tsink, inv_csink, sink_flux);
}

} // namespace

ExplicitReference::ExplicitReference(const SpectralNetwork &net,
                                     double dt_safety)
    : net_(net)
{
    boreas_assert(net_.nx >= 4 && net_.ny >= 4,
                  "grid too small: %dx%d", net_.nx, net_.ny);
    boreas_assert(dt_safety > 0.0 && dt_safety <= 1.0,
                  "dt safety factor %g outside (0, 1]", dt_safety);
    // Explicit-integration stability: dt < C / sum(G) per node; take the
    // tightest bound over node types and apply the safety factor.
    const double gsi = 4.0 * net_.gLatSi + net_.gVert;
    const double gsp = 4.0 * net_.gLatSp + net_.gVert + net_.gSinkCell;
    const double gsink = net_.nx * net_.ny * net_.gSinkCell +
        1.0 / net_.sinkAmbientResistance;
    const double dt_si = net_.cSi / gsi;
    const double dt_sp = net_.cSp / gsp;
    const double dt_sink = net_.sinkCapacitance / gsink;
    dtMax_ = dt_safety * std::min({dt_si, dt_sp, dt_sink});
    boreas_assert(dtMax_ > 0.0, "bad stability bound");

    const size_t n = static_cast<size_t>(net_.nx) * net_.ny;
    si_.assign(n, net_.ambient);
    sp_.assign(n, net_.ambient);
    sink_ = net_.ambient;
    power_.assign(n, 0.0);
    newSi_.assign(n, 0.0);
    newSp_.assign(n, 0.0);
    curvSi_.assign(n, 0.0);
    curvSp_.assign(n, 0.0);
    noPower_.assign(n, 0.0);
}

void
ExplicitReference::loadState(const std::vector<Celsius> &si,
                             const std::vector<Celsius> &sp, Celsius sink)
{
    boreas_assert(si.size() == si_.size() && sp.size() == sp_.size(),
                  "state size mismatch");
    si_ = si;
    sp_ = sp;
    sink_ = sink;
}

void
ExplicitReference::setPower(const std::vector<Watts> &cell_power)
{
    boreas_assert(cell_power.size() == power_.size(),
                  "power map size %zu != %zu cells", cell_power.size(),
                  power_.size());
    power_ = cell_power;
}

int
ExplicitReference::substeps(Seconds dt) const
{
    return std::max(1, static_cast<int>(std::ceil(dt / dtMax_)));
}

void
ExplicitReference::step(Seconds dt)
{
    boreas_assert(dt > 0.0, "bad dt");
    const int substeps_n = substeps(dt);
    const double h = dt / substeps_n;
    for (int s = 0; s < substeps_n; ++s) {
        sink_ = sweep<true>(net_, h / net_.cSi, h / net_.cSp,
                            h / net_.sinkCapacitance, si_.data(),
                            sp_.data(), sink_, power_.data(),
                            net_.ambient, newSi_.data(), newSp_.data());
        si_.swap(newSi_);
        sp_.swap(newSp_);
    }
}

double
ExplicitReference::truncationBound(Seconds dt)
{
    boreas_assert(dt > 0.0, "bad dt");
    const double r_si = 1.0 / net_.cSi;
    const double r_sp = 1.0 / net_.cSp;
    const double r_sink = 1.0 / net_.sinkCapacitance;

    // x' = A x + b under the loaded state and drive; then x'' = A x',
    // the same sweep over the rates, undriven.
    const double dsink = sweep<false>(net_, r_si, r_sp, r_sink, si_.data(),
                                      sp_.data(), sink_, power_.data(),
                                      net_.ambient, newSi_.data(),
                                      newSp_.data());
    double norm = std::fabs(sweep<false>(net_, r_si, r_sp, r_sink,
                                         newSi_.data(), newSp_.data(),
                                         dsink, noPower_.data(), 0.0,
                                         curvSi_.data(), curvSp_.data()));
    for (size_t i = 0; i < si_.size(); ++i) {
        norm = std::max({norm, std::fabs(curvSi_[i]),
                         std::fabs(curvSp_[i])});
    }

    const double h = dt / substeps(dt);
    return 0.5 * h * dt * norm;
}

} // namespace boreas
