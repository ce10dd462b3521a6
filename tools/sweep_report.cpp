/**
 * @file
 * sweep_report: render result documents as SVG/HTML charts and gate
 * perf trends — the repo's regression dashboard, no external deps.
 *
 * Three modes (combinable where it makes sense):
 *
 *  Figure: --sweep FILE --out chart.svg|chart.html
 *    Renders a pp.sweep.v1 document as a Fig. 5/6-style grouped bar
 *    chart of --metric (default ipc). When the document sweeps a
 *    config axis (the ROB/IQ/width study), configs are the x groups
 *    and benchmark/scheme/sampling cells are the series; otherwise
 *    benchmarks group the x axis.
 *
 *  Replay figure: --replay FILE --out chart.svg|chart.html
 *    Same grouped-bar renderer over a pp.replay.v1 document (the
 *    predictor-replay tier sink, src/replay/): workloads on the x
 *    axis, one series per predictor config, --metric defaulting to
 *    mispred_pct. --filter benchmark=... / --filter config=... narrow
 *    wide ablation matrices down to the 4-series palette.
 *
 *  Trend: --store DIR --out trend.html
 *    Charts the history of the perf documents in a sweep_store:
 *    simulator throughput (pp.bench.sim_throughput.v1,
 *    current.aggregate_kips), sampling speedup
 *    (pp.bench.sampling.v1, speedup.speedup), predictor-replay
 *    throughput (pp.bench.predictor_replay.v1, configs_per_sec) and
 *    the result-cache warm/cold + work-stealing speedups
 *    (pp.bench.result_cache.v1) across store entries.
 *
 *  Gate: --store DIR --check [--noise PCT]
 *    Compares each tracked metric's newest entry against the median of
 *    its earlier entries and exits 1 when the newest value sits more
 *    than PCT percent (default 10 — sized for shared-runner wall-clock
 *    noise on KIPS-style metrics; see ci.yml) below the median. Both
 *    tracked metrics are higher-is-better. Fewer than two entries pass
 *    trivially: a trend needs history.
 *
 *  Metrics: --metrics FILE --out report.html
 *    Renders a metrics registry snapshot (obs::MetricSnapshot::toJson,
 *    as written by --metrics-json on the sweep harnesses, --shards
 *    runs included) — every histogram (per-phase host-time
 *    distributions like sweep.build_host_ms / sweep.run_host_ms, and
 *    the supervisor's sweep.shard_backoff_ms / sweep.shard_attempt_ms
 *    plus the sweep.lease_batch_size spread)
 *    becomes a bucket-count bar chart, and the scalar counters/gauges
 *    (the sweep.result_cache_* and sweep.runs_simulated cache counters
 *    included) land in one summary table.
 *
 * Charts follow the repo's chart conventions: one y axis, categorical
 * series colors in fixed slot order, legend for multi-series charts,
 * text in ink tokens (never series colors), recessive hairline grid,
 * and an HTML table view of every charted value. HTML output carries
 * light and dark palettes; SVG output uses var() with light fallbacks
 * so standalone viewers render light.
 *
 * Exit codes: 0 = ok, 1 = --check regression, 2 = usage/IO/parse error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_io.hh"
#include "common/json_min.hh"
#include "common/parse_number.hh"

namespace
{

namespace fs = std::filesystem;
using pp::jsonmin::field;
using pp::jsonmin::JsonParseError;
using pp::jsonmin::JsonValue;
using Kind = JsonValue::Kind;

// ---------------------------------------------------------------------
// Palette (reference tokens; dark variants live in the HTML wrapper)
// ---------------------------------------------------------------------

const char *kSeriesLight[4] = {"#2a78d6", "#eb6834", "#1baf7a",
                               "#eda100"};
const char *kSurface = "#fcfcfb";
const char *kInkPrimary = "#0b0b0b";
const char *kInkSecondary = "#52514e";
const char *kInkMuted = "#898781";
const char *kGridline = "#e1e0d9";
const char *kBaseline = "#c3c2b7";

std::string
seriesFill(std::size_t slot)
{
    // var() so the HTML wrapper's dark palette can restyle the marks;
    // the fallback keeps standalone SVG on the light palette.
    std::ostringstream os;
    os << "var(--series-" << (slot + 1) << ", "
       << kSeriesLight[slot % 4] << ")";
    return os.str();
}

std::string
fmtNum(double v, int prec = 2)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
escapeXml(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out.push_back(c);
        }
    }
    return out;
}

/** Round @p raw up to a 1/2/5-decade tick-friendly axis maximum. */
double
niceCeil(double raw)
{
    if (raw <= 0.0)
        return 1.0;
    const double mag = std::pow(10.0, std::floor(std::log10(raw)));
    for (const double m : {1.0, 2.0, 2.5, 5.0, 10.0}) {
        if (raw <= m * mag)
            return m * mag;
    }
    return 10.0 * mag;
}

// ---------------------------------------------------------------------
// Chart model + SVG renderers
// ---------------------------------------------------------------------

struct Series
{
    std::string name;
    std::vector<double> values; ///< aligned with the chart's categories
};

struct ChartData
{
    std::string title;
    std::string yLabel;
    std::vector<std::string> categories;
    std::vector<Series> series;
};

/** Shared SVG scaffolding: surface, title, y grid + tick labels. */
void
svgFrame(std::ostream &os, const ChartData &c, int width, int height,
         int left, int top, int right, int bottom, double ymax)
{
    os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width
       << "\" height=\"" << height << "\" viewBox=\"0 0 " << width << " "
       << height << "\" role=\"img\" aria-label=\""
       << escapeXml(c.title) << "\">\n";
    os << "<style>text{font-family:system-ui,-apple-system,'Segoe UI',"
          "sans-serif;}</style>\n";
    os << "<rect width=\"" << width << "\" height=\"" << height
       << "\" fill=\"var(--surface-1, " << kSurface << ")\"/>\n";
    os << "<text x=\"" << left << "\" y=\"22\" font-size=\"14\" "
          "font-weight=\"600\" fill=\"var(--text-primary, "
       << kInkPrimary << ")\">" << escapeXml(c.title) << "</text>\n";
    os << "<text x=\"" << left << "\" y=\"40\" font-size=\"11\" "
          "fill=\"var(--text-secondary, " << kInkSecondary << ")\">"
       << escapeXml(c.yLabel) << "</text>\n";

    const int plot_h = height - top - bottom;
    const int plot_w = width - left - right;
    const int ticks = 4;
    for (int t = 1; t <= ticks; ++t) {
        const double frac = static_cast<double>(t) / ticks;
        const double y = top + plot_h * (1.0 - frac);
        os << "<line x1=\"" << left << "\" y1=\"" << y << "\" x2=\""
           << (left + plot_w) << "\" y2=\"" << y
           << "\" stroke=\"var(--gridline, " << kGridline
           << ")\" stroke-width=\"1\"/>\n";
        os << "<text x=\"" << (left - 6) << "\" y=\"" << (y + 3.5)
           << "\" font-size=\"10\" text-anchor=\"end\" "
              "fill=\"var(--text-muted, " << kInkMuted << ")\">"
           << fmtNum(ymax * frac, ymax >= 100 ? 0 : 2) << "</text>\n";
    }
    // Baseline (y = 0).
    os << "<line x1=\"" << left << "\" y1=\"" << (top + plot_h)
       << "\" x2=\"" << (left + plot_w) << "\" y2=\"" << (top + plot_h)
       << "\" stroke=\"var(--baseline, " << kBaseline
       << ")\" stroke-width=\"1\"/>\n";
}

/** Rows the wrapped legend will occupy (0 when no legend is drawn). */
int
legendRows(const ChartData &c, int left, int width)
{
    if (c.series.size() < 2)
        return 0;
    int rows = 1;
    int x = left;
    for (const Series &s : c.series) {
        const int entry_w =
            14 + 7 * static_cast<int>(s.name.size()) + 18;
        if (x > left && x + entry_w > width - 16) {
            x = left;
            ++rows;
        }
        x += entry_w;
    }
    return rows;
}

/** Legend under the title; text in ink, swatch carries the color.
 *  Wraps to further rows when the names outgrow the canvas. */
void
svgLegend(std::ostream &os, const ChartData &c, int left, int y,
          int width)
{
    if (c.series.size() < 2)
        return; // a single series is named by the title
    int x = left;
    for (std::size_t s = 0; s < c.series.size(); ++s) {
        const int entry_w =
            14 + 7 * static_cast<int>(c.series[s].name.size()) + 18;
        if (x > left && x + entry_w > width - 16) {
            x = left;
            y += 16;
        }
        os << "<rect x=\"" << x << "\" y=\"" << (y - 8)
           << "\" width=\"10\" height=\"10\" rx=\"2\" fill=\""
           << seriesFill(s) << "\"/>\n";
        os << "<text x=\"" << (x + 14) << "\" y=\"" << y
           << "\" font-size=\"11\" fill=\"var(--text-secondary, "
           << kInkSecondary << ")\">" << escapeXml(c.series[s].name)
           << "</text>\n";
        x += entry_w;
    }
}

/** Bar with a rounded top anchored square on the baseline. */
void
svgBar(std::ostream &os, double x, double y, double w, double h,
       const std::string &fill)
{
    const double r = std::min(4.0, std::min(w / 2.0, h));
    os << "<path d=\"M" << x << "," << (y + h) << " L" << x << ","
       << (y + r) << " Q" << x << "," << y << " " << (x + r) << "," << y
       << " L" << (x + w - r) << "," << y << " Q" << (x + w) << "," << y
       << " " << (x + w) << "," << (y + r) << " L" << (x + w) << ","
       << (y + h) << " Z\" fill=\"" << fill << "\"/>\n";
}

std::string
renderGroupedBars(const ChartData &c)
{
    // Wide sweeps (the full-suite config study) stretch the canvas so
    // each group keeps a readable bar cluster, and tilt the group
    // labels once they would collide horizontally.
    const int left = 56, right = 16;
    const int width = std::max(
        760, left + right +
                 56 * static_cast<int>(c.categories.size()));
    const bool tilt = c.categories.size() > 8;
    const int bottom = tilt ? 92 : 48;
    // Extra canvas for every wrapped legend row beyond the first.
    const int extra = 16 * std::max(0, legendRows(c, left, width) - 1);
    const int height = 420 + extra, top = 76 + extra;
    const int plot_w = width - left - right;
    const int plot_h = height - top - bottom;

    double ymax = 0.0;
    for (const Series &s : c.series)
        for (const double v : s.values)
            ymax = std::max(ymax, v);
    ymax = niceCeil(ymax);

    std::ostringstream os;
    svgFrame(os, c, width, height, left, top, right, bottom, ymax);
    svgLegend(os, c, left, 58, width);

    const std::size_t ncat = c.categories.size();
    const std::size_t nser = c.series.size();
    const double group_w = static_cast<double>(plot_w) /
        static_cast<double>(ncat);
    const double gap = 2.0;                 // surface gap between bars
    const double pad = group_w * 0.18;      // between groups
    const double bar_w =
        (group_w - 2 * pad - gap * static_cast<double>(nser - 1)) /
        static_cast<double>(nser);

    for (std::size_t g = 0; g < ncat; ++g) {
        const double gx = left + group_w * static_cast<double>(g);
        for (std::size_t s = 0; s < nser; ++s) {
            const double v = c.series[s].values[g];
            const double h = plot_h * (v / ymax);
            const double x =
                gx + pad + static_cast<double>(s) * (bar_w + gap);
            const double y = top + plot_h - h;
            if (h > 0.5)
                svgBar(os, x, y, bar_w, h, seriesFill(s));
        }
        const double lx = gx + group_w / 2;
        const double ly = top + plot_h + 18;
        os << "<text x=\"" << lx << "\" y=\"" << ly
           << "\" font-size=\"11\" text-anchor=\""
           << (tilt ? "end" : "middle") << "\" "
           << (tilt ? "transform=\"rotate(-38 " + fmtNum(lx, 1) + " " +
                   fmtNum(ly, 1) + ")\" "
                    : std::string())
           << "fill=\"var(--text-secondary, " << kInkSecondary << ")\">"
           << escapeXml(c.categories[g]) << "</text>\n";
    }
    os << "</svg>\n";
    return os.str();
}

std::string
renderTrendLine(const ChartData &c)
{
    const int width = 760, left = 64, right = 16, bottom = 44;
    const int extra = 16 * std::max(0, legendRows(c, left, width) - 1);
    const int height = 300 + extra, top = 64 + extra;
    const int plot_w = width - left - right;
    const int plot_h = height - top - bottom;

    double ymax = 0.0;
    for (const Series &s : c.series)
        for (const double v : s.values)
            ymax = std::max(ymax, v);
    ymax = niceCeil(ymax);

    std::ostringstream os;
    svgFrame(os, c, width, height, left, top, right, bottom, ymax);
    svgLegend(os, c, left, 52, width);

    const std::size_t n = c.categories.size();
    auto px = [&](std::size_t i) {
        return n <= 1 ? left + plot_w / 2.0
                      : left + plot_w * static_cast<double>(i) /
                static_cast<double>(n - 1);
    };
    for (std::size_t s = 0; s < c.series.size(); ++s) {
        const Series &ser = c.series[s];
        std::ostringstream pts;
        for (std::size_t i = 0; i < n; ++i) {
            pts << (i ? " " : "") << fmtNum(px(i), 1) << ","
                << fmtNum(top + plot_h * (1.0 - ser.values[i] / ymax),
                          1);
        }
        os << "<polyline points=\"" << pts.str()
           << "\" fill=\"none\" stroke=\"" << seriesFill(s)
           << "\" stroke-width=\"2\" stroke-linejoin=\"round\"/>\n";
        for (std::size_t i = 0; i < n; ++i) {
            os << "<circle cx=\"" << fmtNum(px(i), 1) << "\" cy=\""
               << fmtNum(top + plot_h * (1.0 - ser.values[i] / ymax), 1)
               << "\" r=\"4\" fill=\"" << seriesFill(s)
               << "\" stroke=\"var(--surface-1, " << kSurface
               << ")\" stroke-width=\"2\"/>\n";
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        os << "<text x=\"" << fmtNum(px(i), 1) << "\" y=\""
           << (top + plot_h + 16)
           << "\" font-size=\"10\" text-anchor=\"middle\" "
              "fill=\"var(--text-muted, " << kInkMuted << ")\">"
           << escapeXml(c.categories[i]) << "</text>\n";
    }
    os << "</svg>\n";
    return os.str();
}

/** Table view of a chart — the accessibility twin of every figure. */
std::string
renderTable(const ChartData &c)
{
    std::ostringstream os;
    os << "<table><thead><tr><th></th>";
    for (const Series &s : c.series)
        os << "<th>" << escapeXml(s.name) << "</th>";
    os << "</tr></thead><tbody>\n";
    for (std::size_t g = 0; g < c.categories.size(); ++g) {
        os << "<tr><td>" << escapeXml(c.categories[g]) << "</td>";
        for (const Series &s : c.series)
            os << "<td>" << fmtNum(s.values[g], 3) << "</td>";
        os << "</tr>\n";
    }
    os << "</tbody></table>\n";
    return os.str();
}

std::string
htmlDocument(const std::string &title,
             const std::vector<std::string> &sections)
{
    std::ostringstream os;
    os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
          "<meta charset=\"utf-8\">\n<title>"
       << escapeXml(title) << "</title>\n<style>\n"
          ".viz-root {\n"
          "  color-scheme: light;\n"
          "  --surface-1: #fcfcfb;\n"
          "  --text-primary: #0b0b0b;\n"
          "  --text-secondary: #52514e;\n"
          "  --text-muted: #898781;\n"
          "  --gridline: #e1e0d9;\n"
          "  --baseline: #c3c2b7;\n"
          "  --series-1: #2a78d6;\n"
          "  --series-2: #eb6834;\n"
          "  --series-3: #1baf7a;\n"
          "  --series-4: #eda100;\n"
          "}\n"
          "@media (prefers-color-scheme: dark) {\n"
          "  :root:where(:not([data-theme=\"light\"])) .viz-root {\n"
          "    color-scheme: dark;\n"
          "    --surface-1: #1a1a19;\n"
          "    --text-primary: #ffffff;\n"
          "    --text-secondary: #c3c2b7;\n"
          "    --text-muted: #898781;\n"
          "    --gridline: #2c2c2a;\n"
          "    --baseline: #383835;\n"
          "    --series-1: #3987e5;\n"
          "    --series-2: #d95926;\n"
          "    --series-3: #199e70;\n"
          "    --series-4: #c98500;\n"
          "  }\n"
          "}\n"
          "body { margin: 0; background: var(--surface-1); }\n"
          ".viz-root { font-family: system-ui, -apple-system,"
          " 'Segoe UI', sans-serif; background: var(--surface-1);"
          " color: var(--text-primary); max-width: 800px;"
          " margin: 0 auto; padding: 24px 16px; }\n"
          "h1 { font-size: 18px; }\n"
          "table { border-collapse: collapse; font-size: 12px;"
          " margin: 12px 0 28px; }\n"
          "td, th { padding: 4px 10px; border-bottom: 1px solid"
          " var(--gridline); text-align: right;"
          " font-variant-numeric: tabular-nums; }\n"
          "th { color: var(--text-secondary); font-weight: 600; }\n"
          "td:first-child, th:first-child { text-align: left;"
          " color: var(--text-secondary); }\n"
          "</style>\n</head>\n<body>\n<div class=\"viz-root\">\n"
          "<h1>" << escapeXml(title) << "</h1>\n";
    for (const std::string &s : sections)
        os << s;
    os << "</div>\n</body>\n</html>\n";
    return os.str();
}

void
writeOut(const std::string &path, const std::string &content)
{
    std::string error;
    if (!pp::writeFileAtomic(path, content, &error)) {
        std::fprintf(stderr, "sweep_report: cannot write %s: %s\n",
                     path.c_str(), error.c_str());
        std::exit(2);
    }
}

// ---------------------------------------------------------------------
// Figure mode: pp.sweep.v1 -> grouped bars
// ---------------------------------------------------------------------

/** @p path parsed; JsonParseError unless its schema is @p schema. */
JsonValue
parseDocument(const std::string &path, const std::string &schema)
{
    JsonValue doc = pp::jsonmin::parseJsonFile(path);
    if (field(doc, "schema", Kind::String, path).str != schema)
        throw JsonParseError(path + ": not a " + schema + " document");
    return doc;
}

struct SweepRun
{
    std::string benchmark; ///< benchmark[+ifc]
    std::string scheme;    ///< scheme[/sampling]
    std::string config;    ///< "table1" when unnamed
    double value = 0.0;
};

std::vector<SweepRun>
loadSweepRuns(const std::string &path, const std::string &metric,
              const std::vector<std::pair<std::string, std::string>>
                  &filters)
{
    const JsonValue doc = parseDocument(path, "pp.sweep.v1");
    const JsonValue &runs = field(doc, "runs", Kind::Array, path);
    std::vector<SweepRun> out;
    for (std::size_t i = 0; i < runs.items.size(); ++i) {
        const JsonValue &r = runs.items[i];
        const std::string what = path + ": run " + std::to_string(i);
        // Filters match the raw field values ("" selects runs where
        // the field is empty, e.g. --filter sampling= for the full
        // detailed cells of a mixed sweep).
        bool keep = true;
        for (const auto &f : filters) {
            const JsonValue *v = r.get(f.first);
            keep = keep &&
                (v != nullptr && v->kind == Kind::String ? v->str : "") ==
                    f.second;
        }
        if (!keep)
            continue;
        SweepRun run;
        run.benchmark = field(r, "benchmark", Kind::String, what).str;
        if (field(r, "if_converted", Kind::Bool, what).boolean)
            run.benchmark += "+ifc";
        run.scheme = field(r, "scheme", Kind::String, what).str;
        const std::string &sampling =
            field(r, "sampling", Kind::String, what).str;
        if (!sampling.empty())
            run.scheme += "/" + sampling;
        run.config = field(r, "config", Kind::String, what).str;
        if (run.config.empty())
            run.config = "table1";
        run.value = field(r, metric.c_str(), Kind::Number, what).number;
        out.push_back(std::move(run));
    }
    return out;
}

/**
 * Flattens a pp.replay.v1 document (driver/replay_sink.cc) into the
 * same SweepRun shape the chart builder consumes: one run per
 * (workload, config) cell, scheme pinned to "replay" so the cell id
 * collapses to the workload label. Filters understand two keys —
 * "benchmark" (workload benchmark name) and "config" (predictor
 * config name); repeating a key ORs its values, distinct keys AND.
 */
std::vector<SweepRun>
loadReplayRuns(const std::string &path, const std::string &metric,
               const std::vector<std::pair<std::string, std::string>>
                   &filters)
{
    auto keep = [&](const char *key, const std::string &value) {
        bool constrained = false;
        for (const auto &f : filters) {
            if (f.first != key)
                continue;
            if (f.second == value)
                return true;
            constrained = true;
        }
        return !constrained;
    };
    for (const auto &f : filters) {
        if (f.first != "benchmark" && f.first != "config") {
            std::fprintf(stderr,
                         "sweep_report: --replay filters understand"
                         " benchmark=... and config=..., got '%s'\n",
                         f.first.c_str());
            std::exit(2);
        }
    }
    const JsonValue doc = parseDocument(path, "pp.replay.v1");
    const JsonValue &workloads = field(doc, "workloads", Kind::Array, path);
    std::vector<SweepRun> out;
    for (std::size_t i = 0; i < workloads.items.size(); ++i) {
        const JsonValue &w = workloads.items[i];
        const std::string what = path + ": workload " + std::to_string(i);
        const std::string &bench =
            field(w, "benchmark", Kind::String, what).str;
        const JsonValue &configs = field(w, "configs", Kind::Array, what);
        if (!keep("benchmark", bench))
            continue;
        std::string label = bench;
        if (field(w, "if_convert", Kind::Bool, what).boolean)
            label += "+ifc";
        for (const JsonValue &c : configs.items) {
            const std::string &name =
                field(c, "name", Kind::String, what).str;
            if (!keep("config", name))
                continue;
            SweepRun run;
            run.benchmark = label;
            run.scheme = "replay";
            run.config = name;
            run.value = field(c, metric.c_str(), Kind::Number,
                              what + " config '" + name + "'")
                            .number;
            out.push_back(std::move(run));
        }
    }
    return out;
}

ChartData
sweepToChart(const std::vector<SweepRun> &runs, const std::string &path,
             const std::string &metric)
{
    ChartData c;
    c.yLabel = metric;

    std::vector<std::string> configs;
    for (const SweepRun &r : runs)
        if (std::find(configs.begin(), configs.end(), r.config) ==
            configs.end())
            configs.push_back(r.config);

    // Config-axis study (the ROB/IQ/width sweep): configs make the x
    // groups and each benchmark/scheme cell is a series. Single-config
    // sweeps group by benchmark instead, series = scheme. Full-suite
    // config studies overflow the categorical palette as series, so
    // when the benchmark/scheme cells outnumber the palette but the
    // configs still fit, the roles flip: one x group per cell, one
    // series per config — the per-benchmark scaling-curve view.
    const bool config_axis = configs.size() > 1;
    std::size_t cells = 0;
    {
        std::vector<std::string> seen;
        for (const SweepRun &r : runs) {
            const std::string id = r.benchmark + "/" + r.scheme;
            if (std::find(seen.begin(), seen.end(), id) == seen.end())
                seen.push_back(id);
        }
        cells = seen.size();
    }
    const bool flip = config_axis && cells > 4 && configs.size() <= 4;
    bool one_scheme = true;
    for (const SweepRun &r : runs)
        one_scheme = one_scheme && r.scheme == runs.front().scheme;
    std::vector<std::string> series_ids;
    auto cell_of = [&](const SweepRun &r) {
        return one_scheme ? r.benchmark : r.benchmark + "/" + r.scheme;
    };
    auto series_of = [&](const SweepRun &r) {
        if (!config_axis)
            return r.scheme;
        return flip ? r.config : cell_of(r);
    };
    auto cat_of = [&](const SweepRun &r) {
        if (!config_axis)
            return r.benchmark;
        return flip ? cell_of(r) : r.config;
    };
    for (const SweepRun &r : runs) {
        if (std::find(c.categories.begin(), c.categories.end(),
                      cat_of(r)) == c.categories.end())
            c.categories.push_back(cat_of(r));
        if (std::find(series_ids.begin(), series_ids.end(),
                      series_of(r)) == series_ids.end())
            series_ids.push_back(series_of(r));
    }
    for (const std::string &id : series_ids) {
        Series s;
        s.name = id;
        s.values.assign(c.categories.size(), 0.0);
        c.series.push_back(std::move(s));
    }
    for (const SweepRun &r : runs) {
        const std::size_t si = static_cast<std::size_t>(
            std::find(series_ids.begin(), series_ids.end(),
                      series_of(r)) -
            series_ids.begin());
        const std::size_t ci = static_cast<std::size_t>(
            std::find(c.categories.begin(), c.categories.end(),
                      cat_of(r)) -
            c.categories.begin());
        c.series[si].values[ci] = r.value;
    }
    c.title = metric + " — " + fs::path(path).filename().string() +
        (config_axis ? " (config axis)" : "");
    return c;
}

// ---------------------------------------------------------------------
// Trend + gate mode: sweep_store history
// ---------------------------------------------------------------------

struct TrendMetric
{
    std::string name;   ///< chart title
    std::string unit;
    std::vector<std::string> labels; ///< per-entry x label (commit/seq)
    std::vector<double> values;
};

/** A tracked metric: store kind + path into the document. */
struct MetricSpec
{
    const char *kind;
    const char *section;
    const char *field;
    const char *title;
    const char *unit;
};

const MetricSpec kTrendMetrics[] = {
    {"pp.bench.sim_throughput.v1", "current", "aggregate_kips",
     "simulator throughput", "KIPS (aggregate, detailed path)"},
    {"pp.bench.sim_throughput.v1", "fast_forward", "aggregate_skip_kips",
     "fast-forward throughput", "KIPS (emulator skip tier)"},
    {"pp.bench.sampling.v1", "speedup", "speedup",
     "sampling speedup", "sampled vs full (x)"},
    {"pp.bench.sampling.v1", "parallel_windows", "speedup",
     "checkpoint-parallel speedup", "parallel vs serial sampled (x)"},
    // The predictor-replay bench document is flat, so the section
    // lookup misses and the top-level fallback below picks the field.
    {"pp.bench.predictor_replay.v1", "current", "configs_per_sec",
     "predictor-replay throughput", "config evals per second"},
    {"pp.bench.result_cache.v1", "warm_cold", "speedup",
     "result-cache warm speedup", "warm vs cold fig5 (x)"},
    // Trend the modeled (list-scheduled specCost makespan) ratio, not
    // the wall ratio: it is deterministic on any host, so the gate
    // catches scheduling-policy regressions without runner noise.
    {"pp.bench.result_cache.v1", "steal_static", "modeled_speedup",
     "work-stealing speedup", "steal vs static makespan, modeled (x)"},
};

std::vector<TrendMetric>
loadTrends(const std::string &store)
{
    const std::string index_path =
        (fs::path(store) / "index.jsonl").string();
    std::ifstream is(index_path);
    if (!is) {
        std::fprintf(stderr, "sweep_report: no index at %s\n",
                     index_path.c_str());
        std::exit(2);
    }
    std::vector<TrendMetric> out;
    for (const MetricSpec &m : kTrendMetrics)
        out.push_back(TrendMetric{std::string(m.title) + " — " + m.unit,
                                  m.unit, {}, {}});
    std::string line;
    for (std::size_t lineno = 1; std::getline(is, line); ++lineno) {
        if (is.eof())
            break; // a torn last line (sweep_store.cpp), not an entry
        if (line.empty())
            continue;
        const std::string what =
            index_path + ": bad index line " + std::to_string(lineno);
        const JsonValue entry = pp::jsonmin::parseJson(line, what);
        const std::uint64_t seq = pp::jsonmin::u64Field(entry, "seq", what);
        const std::string &kind = field(entry, "kind", Kind::String, what).str;
        const std::string &object =
            field(entry, "object", Kind::String, what).str;
        const std::string &commit =
            field(entry, "commit", Kind::String, what).str;
        // sweep_store names objects by 16 hex digits; any other name
        // (a path, say) would read outside objects/.
        if (object.size() != 16 ||
            object.find_first_not_of("0123456789abcdef") !=
                std::string::npos)
            throw JsonParseError(what + ": object '" + object +
                                 "' is not a 16-hex object name");
        for (std::size_t i = 0; i < std::size(kTrendMetrics); ++i) {
            const MetricSpec &m = kTrendMetrics[i];
            if (kind != m.kind)
                continue;
            const JsonValue doc = pp::jsonmin::parseJsonFile(
                (fs::path(store) / "objects" / (object + ".json")).string());
            // The detailed-throughput smoke also embeds a fast_forward
            // section, but measured at a different instruction count
            // than the dedicated fast-forward document — mixing the two
            // would make the trend series bimodal. Keep the ff series
            // to docs without a top-level detailed aggregate.
            if (std::strcmp(m.section, "fast_forward") == 0 &&
                doc.get("aggregate_kips") != nullptr)
                continue;
            const JsonValue *section = doc.get(m.section);
            const JsonValue *value =
                section != nullptr ? section->get(m.field) : nullptr;
            // Fresh per-commit documents carry the metric at top level;
            // only the committed baseline doc nests it in a "current"
            // section (recorded next to its pre-overhaul baseline).
            if (value == nullptr)
                value = doc.get(m.field);
            if (value == nullptr ||
                value->kind != JsonValue::Kind::Number)
                continue;
            std::string label = !commit.empty()
                ? commit.substr(0, 7)
                : "#" + std::to_string(seq);
            out[i].labels.push_back(std::move(label));
            out[i].values.push_back(value->number);
        }
    }
    return out;
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2]
                      : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/**
 * Gate: newest entry vs the median of the earlier ones; both tracked
 * metrics are higher-is-better, so only a drop beyond the noise band
 * fails. Returns the number of regressed metrics.
 */
int
checkTrends(const std::vector<TrendMetric> &trends, double noise_pct)
{
    int regressions = 0;
    for (const TrendMetric &t : trends) {
        if (t.values.size() < 2) {
            std::printf("check: %-45s SKIP (%zu entries; need >= 2)\n",
                        t.name.c_str(), t.values.size());
            continue;
        }
        std::vector<double> prior(t.values.begin(), t.values.end() - 1);
        const double base = median(prior);
        const double latest = t.values.back();
        const double floor = base * (1.0 - noise_pct / 100.0);
        const double delta_pct =
            base > 0.0 ? 100.0 * (latest - base) / base : 0.0;
        const bool bad = latest < floor;
        std::printf("check: %-45s latest %.2f vs median %.2f "
                    "(%+.1f%%, noise band %.0f%%) %s\n",
                    t.name.c_str(), latest, base, delta_pct, noise_pct,
                    bad ? "REGRESSION" : "ok");
        if (bad)
            ++regressions;
    }
    return regressions;
}

// ---------------------------------------------------------------------
// Metrics mode: obs snapshot -> histogram bar charts + scalar table
// ---------------------------------------------------------------------

/** Compact edge label: 0.1 -> "0.1", 100000 -> "100000" (no trailing
 *  zeros — these caption histogram buckets, not data cells). */
std::string
fmtEdge(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/** One chart per histogram entry, in the snapshot's (sorted) order. */
std::vector<std::string>
metricsToSections(const JsonValue &doc, const std::string &path)
{
    std::vector<std::string> sections;
    std::ostringstream scalars;
    scalars << "<table><thead><tr><th>metric</th><th>value</th></tr>"
               "</thead><tbody>\n";
    bool have_scalar = false;

    for (const auto &[name, v] : doc.fields) {
        if (v.kind == Kind::Number) {
            scalars << "<tr><td>" << escapeXml(name) << "</td><td>"
                    << fmtNum(v.number, 3) << "</td></tr>\n";
            have_scalar = true;
            continue;
        }
        if (v.kind != Kind::Object)
            continue;
        // A histogram snapshot: count, sum, edges and one bucket per
        // edge plus the overflow bucket, all numbers.
        const std::string what = path + ": metric '" + name + "'";
        const double n = field(v, "count", Kind::Number, what).number;
        const double sum = field(v, "sum", Kind::Number, what).number;
        const JsonValue &edges = field(v, "edges", Kind::Array, what);
        const JsonValue &buckets = field(v, "buckets", Kind::Array, what);
        if (edges.items.empty() ||
            buckets.items.size() != edges.items.size() + 1)
            throw JsonParseError(what + ": not a histogram snapshot");
        for (const JsonValue *x : {&edges, &buckets})
            for (const JsonValue &e : x->items)
                if (e.kind != Kind::Number)
                    throw JsonParseError(what + ": not a histogram snapshot");
        ChartData c;
        std::ostringstream title;
        title << name << " — " << fmtNum(n, 0) << " obs";
        if (n > 0.0)
            title << ", mean " << fmtNum(sum / n, 2);
        c.title = title.str();
        c.yLabel = "observations per bucket";
        for (const JsonValue &e : edges.items)
            c.categories.push_back("<=" + fmtEdge(e.number));
        c.categories.push_back(">" + fmtEdge(edges.items.back().number));
        Series s;
        s.name = "count";
        for (const JsonValue &b : buckets.items)
            s.values.push_back(b.number);
        c.series.push_back(std::move(s));
        sections.push_back(renderGroupedBars(c));
        sections.push_back(renderTable(c));
    }
    scalars << "</tbody></table>\n";
    if (have_scalar) {
        sections.push_back("<h1>counters &amp; gauges</h1>\n");
        sections.push_back(scalars.str());
    }
    return sections;
}

void
usage()
{
    std::fprintf(stderr,
        "sweep_report — SVG/HTML charts + perf-trend gate for result"
        " documents\n\n"
        "  sweep_report --sweep FILE.json --out chart.svg|chart.html"
        " [--metric M]\n"
        "  sweep_report --replay FILE.json --out chart.svg|chart.html"
        " [--metric M]\n"
        "  sweep_report --store DIR --out trend.html\n"
        "  sweep_report --store DIR --check [--noise PCT]\n"
        "  sweep_report --metrics FILE.json --out report.html\n\n"
        "  --sweep FILE   render a pp.sweep.v1 document as grouped"
        " bars\n"
        "  --replay FILE  render a pp.replay.v1 document as grouped"
        " bars\n"
        "                 (one series per predictor config; --metric"
        " defaults\n"
        "                 to mispred_pct; --filter benchmark=... /"
        " config=...)\n"
        "  --metric M     run field to chart (default ipc)\n"
        "  --filter K=V   keep only runs whose raw field K equals V\n"
        "                 (repeatable; K=<empty> matches the empty"
        " value)\n"
        "  --metrics FILE render a metrics snapshot (--metrics-json"
        " output):\n"
        "                 histograms as bucket charts, scalars as a"
        " table\n"
        "  --store DIR    sweep_store directory (trend/check modes)\n"
        "  --out PATH     output file; .svg = bare chart, .html ="
        " chart + table view\n"
        "  --check        exit 1 when a tracked metric's newest entry"
        " drops more\n"
        "                 than the noise band below the median of its"
        " history\n"
        "  --noise PCT    noise band for --check (default 10)\n\n"
        "exit status: 0 ok, 1 check regression, 2 usage/IO/parse"
        " error\n");
}

int
run(int argc, char **argv)
{
    std::string sweep_path;
    std::string replay_path;
    std::string metrics_path;
    std::string store;
    std::string out;
    std::string metric;
    std::vector<std::pair<std::string, std::string>> filters;
    bool check = false;
    double noise_pct = 10.0;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto need_value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(a, "--sweep") == 0) {
            sweep_path = need_value();
        } else if (std::strcmp(a, "--replay") == 0) {
            replay_path = need_value();
        } else if (std::strcmp(a, "--metrics") == 0) {
            metrics_path = need_value();
        } else if (std::strcmp(a, "--store") == 0) {
            store = need_value();
        } else if (std::strcmp(a, "--out") == 0) {
            out = need_value();
        } else if (std::strcmp(a, "--metric") == 0) {
            metric = need_value();
        } else if (std::strcmp(a, "--filter") == 0) {
            const std::string kv = need_value();
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::fprintf(stderr,
                             "sweep_report: --filter expects"
                             " KEY=VALUE, got '%s'\n",
                             kv.c_str());
                return 2;
            }
            filters.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        } else if (std::strcmp(a, "--check") == 0) {
            check = true;
        } else if (std::strcmp(a, "--noise") == 0) {
            const char *v = need_value();
            const std::optional<double> noise = pp::parseDecimal(v);
            if (!noise) {
                std::fprintf(stderr,
                             "sweep_report: invalid number for --noise:"
                             " '%s'\n",
                             v);
                return 2;
            }
            noise_pct = *noise;
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            usage();
            return 0;
        } else {
            usage();
            return 2;
        }
    }

    const bool html =
        out.size() > 5 && out.compare(out.size() - 5, 5, ".html") == 0;

    if (!sweep_path.empty() || !replay_path.empty()) {
        const bool is_replay = !replay_path.empty();
        const std::string &doc_path =
            is_replay ? replay_path : sweep_path;
        if (out.empty()) {
            std::fprintf(stderr, "sweep_report: %s needs --out\n",
                         is_replay ? "--replay" : "--sweep");
            return 2;
        }
        if (metric.empty())
            metric = is_replay ? "mispred_pct" : "ipc";
        const std::vector<SweepRun> runs = is_replay
            ? loadReplayRuns(doc_path, metric, filters)
            : loadSweepRuns(doc_path, metric, filters);
        if (runs.empty()) {
            std::fprintf(stderr, "sweep_report: empty sweep\n");
            return 2;
        }
        const ChartData c = sweepToChart(runs, doc_path, metric);
        if (c.series.size() > 4) {
            std::fprintf(stderr,
                         "sweep_report: %zu series exceeds the 4-slot"
                         " categorical palette; filter the sweep or"
                         " split the chart\n",
                         c.series.size());
            return 2;
        }
        const std::string svg = renderGroupedBars(c);
        writeOut(out, html ? htmlDocument(c.title,
                                          {svg, renderTable(c)})
                           : svg);
        std::printf("sweep_report: wrote %s (%zu categories x %zu"
                    " series)\n",
                    out.c_str(), c.categories.size(), c.series.size());
        return 0;
    }

    if (!metrics_path.empty()) {
        if (out.empty()) {
            std::fprintf(stderr,
                         "sweep_report: --metrics needs --out\n");
            return 2;
        }
        std::vector<std::string> sections = metricsToSections(
            pp::jsonmin::parseJsonFile(metrics_path), metrics_path);
        if (sections.empty())
            sections.push_back("<p>No metrics in the snapshot.</p>\n");
        writeOut(out,
                 htmlDocument("metrics — " +
                                  fs::path(metrics_path)
                                      .filename()
                                      .string(),
                              sections));
        std::printf("sweep_report: wrote %s\n", out.c_str());
        return 0;
    }

    if (!store.empty()) {
        const std::vector<TrendMetric> trends = loadTrends(store);
        int rc = 0;
        if (check)
            rc = checkTrends(trends, noise_pct) > 0 ? 1 : 0;
        if (!out.empty()) {
            std::vector<std::string> sections;
            for (const TrendMetric &t : trends) {
                if (t.values.empty())
                    continue;
                ChartData c;
                c.title = t.name;
                c.yLabel = t.unit;
                c.categories = t.labels;
                c.series.push_back(Series{"", t.values});
                sections.push_back(renderTrendLine(c));
                c.series[0].name = t.unit;
                sections.push_back(renderTable(c));
            }
            if (sections.empty())
                sections.push_back(
                    "<p>No perf documents in the store yet.</p>\n");
            writeOut(out, htmlDocument("perf trends", sections));
            std::printf("sweep_report: wrote %s\n", out.c_str());
        }
        if (!check && out.empty()) {
            std::fprintf(stderr,
                         "sweep_report: --store needs --out or"
                         " --check\n");
            return 2;
        }
        return rc;
    }

    usage();
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const JsonParseError &e) {
        std::fprintf(stderr, "sweep_report: %s\n", e.what());
        return 2;
    }
}
