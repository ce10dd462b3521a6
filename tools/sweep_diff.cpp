/**
 * @file
 * sweep_diff: compare two sweep result documents.
 *
 * Understands two schemas, auto-detected (both files must agree):
 *
 * pp.sweep.v1 — pairs the runs positionally (the spec order of a
 * matrix is deterministic, so position + identity fields must agree),
 * prints a per-run table of IPC and misprediction-rate deltas with
 * optional tolerances, and diffs the summary's deterministic counter
 * block.
 *
 * pp.replay.v1 — pairs workloads and their per-config counter blocks
 * positionally and compares EVERY deterministic field exactly (replay
 * counters are integers; there is no tolerance to speak of), so the CI
 * smoke can gate batched-vs-serial bit-identity structurally instead
 * of byte-comparing scrubbed JSON.
 *
 * In both schemas host wall-times (every key ending in "host_ms") are
 * perf samples, not results, and are never compared.
 *
 *   sweep_diff A.json B.json [--tol-ipc X] [--tol-mispred X] [--quiet]
 *   (the tolerance flags apply to pp.sweep.v1 only)
 *
 * Exit codes: 0 = documents match, 1 = mismatch, 2 = usage/parse error.
 *
 * JSON parsing lives in json_min.hh (shared with sweep_store and
 * sweep_report): a malformed document, or one missing a field the diff
 * reads, exits 2 with a message naming the file.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/json_min.hh"
#include "common/parse_number.hh"

namespace
{

using pp::jsonmin::JsonParseError;
using pp::jsonmin::JsonValue;
using Kind = JsonValue::Kind;

// ---------------------------------------------------------------------
// pp.sweep.v1 extraction
// ---------------------------------------------------------------------

struct Run
{
    std::string id;      ///< benchmark[/ifc]/scheme[/config][/sampling]
    double ipc = 0.0;
    double mispredPct = 0.0;
};

struct SummaryCounter
{
    std::string name;
    double value = 0.0;
};

struct Document
{
    std::vector<Run> runs;
    std::vector<SummaryCounter> summary; ///< host_ms keys excluded
};

/** The string field @p key of @p obj (JsonParseError naming @p what). */
const std::string &
str(const JsonValue &obj, const char *key, const std::string &what)
{
    return pp::jsonmin::field(obj, key, Kind::String, what).str;
}

/** Wall-time keys (host_ms and its variants) are never compared. */
bool
isHostTimeKey(const std::string &key)
{
    return key.size() >= 7 &&
        key.compare(key.size() - 7, 7, "host_ms") == 0;
}

Document
loadDocument(const JsonValue &doc, const std::string &path)
{
    Document out;
    const JsonValue &runs = pp::jsonmin::field(doc, "runs", Kind::Array, path);
    for (std::size_t i = 0; i < runs.items.size(); ++i) {
        const JsonValue &r = runs.items[i];
        const std::string what = path + ": run " + std::to_string(i);
        auto num = [&](const char *key) {
            return pp::jsonmin::field(r, key, Kind::Number, what).number;
        };
        Run run;
        run.id = str(r, "benchmark", what);
        if (pp::jsonmin::field(r, "if_converted", Kind::Bool, what).boolean)
            run.id += "+ifc";
        run.id += "/" + str(r, "scheme", what);
        const std::string &config = str(r, "config", what);
        if (!config.empty())
            run.id += "/" + config;
        const std::string &sampling = str(r, "sampling", what);
        if (!sampling.empty())
            run.id += "/" + sampling;
        run.ipc = num("ipc");
        run.mispredPct = num("mispred_pct");
        out.runs.push_back(std::move(run));
    }

    // The summary counters are deterministic (a pure function of the
    // spec list and options); wall-time keys are the one exception.
    const JsonValue *summary = doc.get("summary");
    if (summary != nullptr &&
        summary->kind == JsonValue::Kind::Object) {
        for (const auto &f : summary->fields) {
            if (isHostTimeKey(f.first) ||
                f.second.kind != JsonValue::Kind::Number)
                continue;
            out.summary.push_back(SummaryCounter{f.first, f.second.number});
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// pp.replay.v1 extraction + diff
// ---------------------------------------------------------------------

/**
 * A replay document flattened to (key, canonical value) pairs in
 * document order: every deterministic workload/config field, keyed
 * "<workload>.<field>" and "<workload>/<config>.<field>". Numbers are
 * canonicalized with %.17g (the sink's own float format), so exact
 * string equality == exact value equality.
 */
struct ReplayEntry
{
    std::string key;
    std::string value;
};

std::string
canonValue(const JsonValue &v)
{
    switch (v.kind) {
      case JsonValue::Kind::Number:
        return pp::jsonmin::formatDouble(v.number);
      case JsonValue::Kind::String:
        return v.str;
      case JsonValue::Kind::Bool:
        return v.boolean ? "true" : "false";
      default:
        return "<non-scalar>";
    }
}

std::vector<ReplayEntry>
loadReplayDocument(const JsonValue &doc, const std::string &path)
{
    const JsonValue &workloads =
        pp::jsonmin::field(doc, "workloads", Kind::Array, path);
    std::vector<ReplayEntry> out;
    for (std::size_t i = 0; i < workloads.items.size(); ++i) {
        const JsonValue &w = workloads.items[i];
        const std::string what = path + ": workload " + std::to_string(i);
        std::string wid = str(w, "benchmark", what);
        if (pp::jsonmin::field(w, "if_convert", Kind::Bool, what).boolean)
            wid += "+ifc";
        for (const auto &f : w.fields) {
            if (f.first == "configs" || isHostTimeKey(f.first))
                continue;
            out.push_back(
                ReplayEntry{wid + "." + f.first, canonValue(f.second)});
        }
        for (const JsonValue &c :
             pp::jsonmin::field(w, "configs", Kind::Array, what).items) {
            const std::string cid = wid + "/" + str(c, "name", what);
            for (const auto &f : c.fields) {
                if (isHostTimeKey(f.first))
                    continue;
                out.push_back(ReplayEntry{cid + "." + f.first,
                                          canonValue(f.second)});
            }
        }
    }
    return out;
}

/** Exact per-config counter diff of two pp.replay.v1 documents. */
int
diffReplay(const JsonValue &da, const JsonValue &db,
           const std::string &path_a, const std::string &path_b,
           bool quiet)
{
    const std::vector<ReplayEntry> a = loadReplayDocument(da, path_a);
    const std::vector<ReplayEntry> b = loadReplayDocument(db, path_b);

    bool mismatch = false;
    std::size_t bad = 0;
    const std::size_t n = std::min(a.size(), b.size());
    if (a.size() != b.size()) {
        std::fprintf(stderr, "field count differs: %zu vs %zu\n",
                     a.size(), b.size());
        mismatch = true;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].key != b[i].key) {
            std::printf("structure differs at #%zu: '%s' vs '%s'"
                        "  <-- MISMATCH\n", i, a[i].key.c_str(),
                        b[i].key.c_str());
            mismatch = true;
            ++bad;
            continue;
        }
        if (a[i].value != b[i].value) {
            std::printf("%-60s %16s %16s  <-- MISMATCH\n",
                        a[i].key.c_str(), a[i].value.c_str(),
                        b[i].value.c_str());
            mismatch = true;
            ++bad;
        } else if (!quiet) {
            std::printf("%-60s %16s ==\n", a[i].key.c_str(),
                        a[i].value.c_str());
        }
    }
    if (mismatch) {
        std::printf("MISMATCH: %zu of %zu compared fields differ"
                    " (pp.replay.v1: exact compare)\n", bad, n);
        return 1;
    }
    std::printf("OK: %zu fields match exactly (pp.replay.v1)\n", n);
    return 0;
}

/** Name the run ids present in @p longer but absent from @p shorter. */
void
reportMissingRuns(const char *longer_name,
                  const std::vector<Run> &longer,
                  const std::vector<Run> &shorter)
{
    std::multiset<std::string> have;
    for (const Run &r : shorter)
        have.insert(r.id);
    for (const Run &r : longer) {
        auto it = have.find(r.id);
        if (it != have.end()) {
            have.erase(it);
            continue;
        }
        std::fprintf(stderr, "  only in %s: %s\n", longer_name,
                     r.id.c_str());
    }
}

void
usage()
{
    std::fprintf(stderr,
        "sweep_diff — structural diff of two sweep result documents\n"
        "(pp.sweep.v1: per-run IPC/misprediction deltas;"
        " pp.replay.v1: exact\nper-config counter compare; schema"
        " auto-detected, both files must match)\n\n"
        "  sweep_diff A.json B.json [--tol-ipc X] [--tol-mispred X]"
        " [--quiet]\n\n"
        "  --tol-ipc X       allowed |delta| on ipc (default 0: exact;"
        " pp.sweep.v1 only)\n"
        "  --tol-mispred X   allowed |delta| on mispred_pct, absolute pp"
        " (default 0)\n"
        "  --quiet           print only mismatching runs and the verdict\n\n"
        "exit status: 0 documents match, 1 mismatch, 2 usage/parse"
        " error\n");
}

int
run(int argc, char **argv)
{
    std::vector<std::string> paths;
    double tol_ipc = 0.0;
    double tol_mispred = 0.0;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto need_value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                return nullptr;
            }
            return argv[++i];
        };
        if (std::strcmp(a, "--tol-ipc") == 0 ||
            std::strcmp(a, "--tol-mispred") == 0) {
            const char *v = need_value();
            if (v == nullptr)
                return 2;
            const std::optional<double> tol = pp::parseDecimal(v);
            if (!tol) {
                std::fprintf(stderr,
                             "sweep_diff: invalid number for %s: '%s'\n",
                             a, v);
                return 2;
            }
            (std::strcmp(a, "--tol-ipc") == 0 ? tol_ipc : tol_mispred) =
                *tol;
        } else if (std::strcmp(a, "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            usage();
            return 0;
        } else if (a[0] == '-') {
            usage();
            return 2;
        } else {
            paths.push_back(a);
        }
    }
    if (paths.size() != 2) {
        usage();
        return 2;
    }

    const JsonValue doc_a = pp::jsonmin::parseJsonFile(paths[0]);
    const JsonValue doc_b = pp::jsonmin::parseJsonFile(paths[1]);
    const std::string &schema_a = str(doc_a, "schema", paths[0]);
    const std::string &schema_b = str(doc_b, "schema", paths[1]);
    if (schema_a != schema_b) {
        std::fprintf(stderr,
                     "sweep_diff: schema mismatch: %s is %s, %s is %s\n",
                     paths[0].c_str(), schema_a.c_str(),
                     paths[1].c_str(), schema_b.c_str());
        return 2;
    }
    if (schema_a == "pp.replay.v1")
        return diffReplay(doc_a, doc_b, paths[0], paths[1], quiet);
    if (schema_a != "pp.sweep.v1") {
        std::fprintf(stderr,
                     "sweep_diff: unsupported schema '%s' (want"
                     " pp.sweep.v1 or pp.replay.v1)\n",
                     schema_a.c_str());
        return 2;
    }

    const Document a = loadDocument(doc_a, paths[0]);
    const Document b = loadDocument(doc_b, paths[1]);

    bool mismatch = false;
    if (a.runs.size() != b.runs.size()) {
        std::fprintf(stderr, "run count differs: %zu vs %zu\n",
                     a.runs.size(), b.runs.size());
        if (a.runs.size() > b.runs.size())
            reportMissingRuns("A", a.runs, b.runs);
        else
            reportMissingRuns("B", b.runs, a.runs);
        mismatch = true;
    }

    std::printf("%-44s %12s %12s %12s %10s\n", "run", "ipc(A)", "ipc(B)",
                "d_ipc", "d_miss_pp");
    const std::size_t n = std::min(a.runs.size(), b.runs.size());
    std::size_t bad_runs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Run &ra = a.runs[i];
        const Run &rb = b.runs[i];
        if (ra.id != rb.id) {
            std::printf("%-44s   RUN IDENTITY DIFFERS: '%s' vs '%s'\n",
                        ra.id.c_str(), ra.id.c_str(), rb.id.c_str());
            mismatch = true;
            ++bad_runs;
            continue;
        }
        const double d_ipc = rb.ipc - ra.ipc;
        const double d_mis = rb.mispredPct - ra.mispredPct;
        // Negated <= so a NaN delta (e.g. a degenerate metric in one
        // document) counts as a mismatch instead of slipping past the
        // tolerance comparison.
        const bool bad = !(std::fabs(d_ipc) <= tol_ipc) ||
            !(std::fabs(d_mis) <= tol_mispred);
        if (bad) {
            mismatch = true;
            ++bad_runs;
        }
        if (!quiet || bad) {
            std::printf("%-44s %12.5f %12.5f %+12.6f %+10.4f%s\n",
                        ra.id.c_str(), ra.ipc, rb.ipc, d_ipc, d_mis,
                        bad ? "  <-- MISMATCH" : "");
        }
    }

    // Summary counter block: exact comparison, key by key. A counter
    // present on only one side (schema growth) is reported but only a
    // differing shared counter is a mismatch — newer documents may
    // carry counters older ones predate.
    for (const SummaryCounter &sa : a.summary) {
        const SummaryCounter *sb = nullptr;
        for (const SummaryCounter &s : b.summary)
            if (s.name == sa.name)
                sb = &s;
        if (sb == nullptr) {
            if (!quiet)
                std::printf("summary: '%s' only in A (%g)\n",
                            sa.name.c_str(), sa.value);
            continue;
        }
        if (sa.value != sb->value) {
            std::printf("summary: '%s' differs: %g vs %g  <-- MISMATCH\n",
                        sa.name.c_str(), sa.value, sb->value);
            mismatch = true;
        }
    }
    for (const SummaryCounter &sb : b.summary) {
        bool in_a = false;
        for (const SummaryCounter &s : a.summary)
            in_a = in_a || s.name == sb.name;
        if (!in_a && !quiet)
            std::printf("summary: '%s' only in B (%g)\n",
                        sb.name.c_str(), sb.value);
    }

    if (mismatch) {
        std::printf("MISMATCH: %zu of %zu compared runs differ beyond"
                    " tolerance (tol_ipc=%g, tol_mispred=%g)\n",
                    bad_runs, n, tol_ipc, tol_mispred);
        return 1;
    }
    std::printf("OK: %zu runs match (tol_ipc=%g, tol_mispred=%g)\n", n,
                tol_ipc, tol_mispred);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const JsonParseError &e) {
        std::fprintf(stderr, "sweep_diff: %s\n", e.what());
        return 2;
    }
}
