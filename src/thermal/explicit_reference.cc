#include "thermal/explicit_reference.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace boreas
{

namespace
{

/**
 * One interior stencil row (all four neighbors exist): branch-free,
 * restrict-qualified, and kept a free function so the compiler can
 * prove independence and vectorize it. The floating-point operation
 * order matches the branchy edge formulation term for term, so the
 * fast path changes speed only, never results.
 */
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
        nsi_v[i] = tsi + inv_csi * flux;

        double fsp = g_v * (tsi - tsp) + g_sink * (tsink - tsp);
        fsp += g_sp * (tsp_v[i - 1] - tsp);
        fsp += g_sp * (tsp_v[i + 1] - tsp);
        fsp += g_sp * (tsp_v[i - nx] - tsp);
        fsp += g_sp * (tsp_v[i + nx] - tsp);
        nsp_v[i] = tsp + inv_csp * fsp;
    }
}

} // namespace

ExplicitReference::ExplicitReference(const SpectralNetwork &net,
                                     double dt_safety)
    : net_(net)
{
    boreas_assert(net_.nx >= 4 && net_.ny >= 4,
                  "grid too small: %dx%d", net_.nx, net_.ny);
    // Explicit-integration stability: dt < C / sum(G) per node; take the
    // tightest bound over node types and apply the safety factor.
    const double gsi = 4.0 * net_.gLatSi + net_.gVert;
    const double gsp = 4.0 * net_.gLatSp + net_.gVert + net_.gSinkCell;
    const double dt_si = net_.cSi / gsi;
    const double dt_sp = net_.cSp / gsp;
    dtMax_ = dt_safety * std::min(dt_si, dt_sp);
    boreas_assert(dtMax_ > 0.0, "bad stability bound");

    const size_t n = static_cast<size_t>(net_.nx) * net_.ny;
    si_.assign(n, net_.ambient);
    sp_.assign(n, net_.ambient);
    sink_ = net_.ambient;
    power_.assign(n, 0.0);
    newSi_.assign(n, 0.0);
    newSp_.assign(n, 0.0);
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

void
ExplicitReference::rebuildPlan(Seconds dt)
{
    plan_.dt = dt;
    plan_.substeps = std::max(
        1, static_cast<int>(std::ceil(dt / dtMax_)));
    const double h = dt / plan_.substeps;
    plan_.invCsi = h / net_.cSi;
    plan_.invCsp = h / net_.cSp;
    plan_.hOverCsink = h / net_.sinkCapacitance;
}

void
ExplicitReference::step(Seconds dt)
{
    boreas_assert(dt > 0.0, "bad dt");
    if (dt != plan_.dt)
        rebuildPlan(dt);

    const int nx = net_.nx;
    const int ny = net_.ny;
    const int n = nx * ny;
    const double inv_csi = plan_.invCsi;
    const double inv_csp = plan_.invCsp;
    const double g_si = net_.gLatSi;
    const double g_sp = net_.gLatSp;
    const double g_v = net_.gVert;
    const double g_sink = net_.gSinkCell;

    for (int s = 0; s < plan_.substeps; ++s) {
        const double *__restrict tsi_v = si_.data();
        const double *__restrict tsp_v = sp_.data();
        double *__restrict nsi_v = newSi_.data();
        double *__restrict nsp_v = newSp_.data();
        const double *__restrict pc_v = power_.data();
        const double tsink = sink_;

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
            nsi_v[i] = tsi + inv_csi * flux;

            double fsp = g_v * (tsi - tsp) + g_sink * (tsink - tsp);
            if (x > 0)
                fsp += g_sp * (tsp_v[i - 1] - tsp);
            if (x < nx - 1)
                fsp += g_sp * (tsp_v[i + 1] - tsp);
            if (y > 0)
                fsp += g_sp * (tsp_v[i - nx] - tsp);
            if (y < ny - 1)
                fsp += g_sp * (tsp_v[i + nx] - tsp);
            nsp_v[i] = tsp + inv_csp * fsp;
        };

        for (int x = 0; x < nx; ++x)
            edge_cell(x, 0, x);

        for (int y = 1; y < ny - 1; ++y) {
            const int row = y * nx;
            edge_cell(0, y, row);
            updateInteriorRow(tsi_v, tsp_v, nsi_v, nsp_v, pc_v, row,
                              nx, g_si, g_sp, g_v, g_sink, tsink,
                              inv_csi, inv_csp);
            edge_cell(nx - 1, y, row + nx - 1);
        }

        const int last_row = (ny - 1) * nx;
        for (int x = 0; x < nx; ++x)
            edge_cell(x, ny - 1, last_row + x);

        // Sink update, accumulated in row-major order.
        double sink_flux = 0.0;
        for (int i = 0; i < n; ++i)
            sink_flux += g_sink * (tsp_v[i] - tsink);
        sink_flux += (net_.ambient - sink_) / net_.sinkAmbientResistance;
        sink_ += plan_.hOverCsink * sink_flux;

        si_.swap(newSi_);
        sp_.swap(newSp_);
    }
}

} // namespace boreas
