/**
 * @file
 * sweep_store: append-only, content-addressed store for result
 * documents (pp.sweep.v1 sweeps and BENCH_* perf documents).
 *
 * Layout under the store directory:
 *
 *   objects/<fnv1a-16hex>.json   the document bytes, named by content
 *                                hash (the same FNV-1a the trace layer
 *                                uses) — append-only and idempotent:
 *                                re-adding identical bytes reuses the
 *                                object
 *   index.jsonl                  one JSON line per add, append-only:
 *                                {"seq":N,"label":L,"commit":C,
 *                                 "kind":K,"object":H,"file":F}
 *                                — idempotent per (label, object):
 *                                re-adding identical bytes under the
 *                                same label appends nothing
 *                                (a retried CI job must not duplicate
 *                                its history entry)
 *
 * "kind" is the document's "schema" string ("pp.sweep.v1", a BENCH
 * document's own schema), or "unknown" when it has none. The index is
 * the history: CI appends one entry per commit per benchmark document,
 * and sweep_report reads the sequence back to chart trends and gate
 * regressions. Nothing is ever rewritten, so concurrent readers are
 * safe and the store can live in a CI cache or an artifact branch.
 *
 *   sweep_store add  --store DIR --label L [--commit SHA] FILE...
 *   sweep_store list --store DIR
 *
 * Crash safety: objects land via atomic tmp+rename and index lines via
 * single O_APPEND writes (common/atomic_io.hh), so a killed add never
 * leaves a torn object or a half-written index entry behind.
 *
 * Exit codes: 0 = ok, 2 = usage/IO/parse error (a document or index
 * line the JSON reader rejects, named in the message).
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "common/atomic_io.hh"
#include "common/fnv.hh"
#include "common/json_min.hh"

namespace
{

namespace fs = std::filesystem;
using pp::jsonmin::JsonValue;

/** Document kind: its schema string, or "unknown" when it has none. */
std::string
kindOf(const std::string &bytes, const std::string &file)
{
    const JsonValue doc = pp::jsonmin::parseJson(bytes, file);
    const JsonValue *schema = doc.get("schema");
    return schema != nullptr && schema->kind == JsonValue::Kind::String
        ? schema->str
        : "unknown";
}

/** Count existing index lines so the new entry gets the next seq. */
std::uint64_t
nextSeq(const std::string &index_path)
{
    std::ifstream is(index_path);
    std::uint64_t n = 0;
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            ++n;
    return n;
}

/**
 * Whether (label, object) is already indexed. Re-adding the same bytes
 * under the same label must be a no-op — the store is append-only, and
 * a retried CI job would otherwise grow one duplicate history entry per
 * retry. Unparseable lines are skipped (only a torn last line is
 * possible, see atomic_io.hh).
 */
bool
indexHas(const std::string &index_path, const std::string &label,
         const std::string &hash)
{
    std::ifstream is(index_path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        try {
            const JsonValue e = pp::jsonmin::parseJson(line);
            const JsonValue *l = e.get("label");
            const JsonValue *o = e.get("object");
            if (l != nullptr && o != nullptr && l->str == label &&
                o->str == hash)
                return true;
        } catch (const pp::jsonmin::JsonParseError &) {
            continue;
        }
    }
    return false;
}

int
cmdAdd(const std::string &store, const std::string &label,
       const std::string &commit, const std::vector<std::string> &files)
{
    if (files.empty()) {
        std::fprintf(stderr, "sweep_store add: no input files\n");
        return 2;
    }
    std::error_code ec;
    fs::create_directories(fs::path(store) / "objects", ec);
    if (ec) {
        std::fprintf(stderr, "sweep_store: cannot create %s: %s\n",
                     store.c_str(), ec.message().c_str());
        return 2;
    }
    const std::string index_path =
        (fs::path(store) / "index.jsonl").string();
    std::uint64_t seq = nextSeq(index_path);

    for (const std::string &file : files) {
        const std::string bytes = pp::jsonmin::readJsonFile(file);
        const std::string kind = kindOf(bytes, file);
        const std::string hash = pp::hashHex(pp::fnv1a(bytes));
        const fs::path obj =
            fs::path(store) / "objects" / (hash + ".json");
        std::string error;
        // Atomic: a killed add leaves either the whole object or none.
        if (!fs::exists(obj) &&
            !pp::writeFileAtomic(obj.string(), bytes, &error)) {
            std::fprintf(stderr, "sweep_store: cannot write %s: %s\n",
                         obj.string().c_str(), error.c_str());
            return 2;
        }
        if (indexHas(index_path, label, hash)) {
            std::printf("sweep_store: %s already indexed as %s under"
                        " label '%s'\n",
                        file.c_str(), hash.c_str(), label.c_str());
            continue;
        }
        std::ostringstream entry;
        pp::jsonmin::JsonWriter(entry)
            .beginObject()
            .field("seq", seq)
            .field("label", label)
            .field("commit", commit)
            .field("kind", kind)
            .field("object", hash)
            .field("file", fs::path(file).filename().string())
            .endObject();
        if (!pp::appendLineDurable(index_path, entry.str(), &error)) {
            std::fprintf(stderr,
                         "sweep_store: cannot append to %s: %s\n",
                         index_path.c_str(), error.c_str());
            return 2;
        }
        std::printf("sweep_store: added %s as %s (kind %s, seq %llu)\n",
                    file.c_str(), hash.c_str(), kind.c_str(),
                    static_cast<unsigned long long>(seq));
        ++seq;
    }
    return 0;
}

int
cmdList(const std::string &store)
{
    const std::string index_path =
        (fs::path(store) / "index.jsonl").string();
    std::ifstream is(index_path);
    if (!is) {
        std::fprintf(stderr, "sweep_store: no index at %s\n",
                     index_path.c_str());
        return 2;
    }
    std::printf("%-5s %-20s %-12s %-24s %s\n", "seq", "label", "commit",
                "kind", "object");
    std::string line;
    for (std::size_t lineno = 1; std::getline(is, line); ++lineno) {
        if (line.empty())
            continue;
        const std::string what =
            index_path + ": bad index line " + std::to_string(lineno);
        const JsonValue e = pp::jsonmin::parseJson(line, what);
        const std::uint64_t seq = pp::jsonmin::u64Field(e, "seq", what);
        auto str = [&](const char *k) {
            return pp::jsonmin::field(e, k, JsonValue::Kind::String, what)
                .str;
        };
        std::printf("%-5llu %-20s %-12s %-24s %s\n",
                    static_cast<unsigned long long>(seq),
                    str("label").c_str(),
                    str("commit").substr(0, 12).c_str(),
                    str("kind").c_str(), str("object").c_str());
    }
    return 0;
}

void
usage()
{
    std::fprintf(stderr,
        "sweep_store — append-only content-addressed store for result"
        " documents\n\n"
        "  sweep_store add  --store DIR --label L [--commit SHA]"
        " FILE...\n"
        "  sweep_store list --store DIR\n\n"
        "  --store DIR   store directory (created on first add)\n"
        "  --label L     human label for the entries (e.g. ci,"
        " local)\n"
        "  --commit SHA  source revision recorded with the entries\n\n"
        "exit status: 0 ok, 2 usage/IO/parse error\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    std::string store;
    std::string label;
    std::string commit;
    std::vector<std::string> files;

    for (int i = 2; i < argc; ++i) {
        const char *a = argv[i];
        auto need_value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(a, "--store") == 0) {
            store = need_value();
        } else if (std::strcmp(a, "--label") == 0) {
            label = need_value();
        } else if (std::strcmp(a, "--commit") == 0) {
            commit = need_value();
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            usage();
            return 0;
        } else if (a[0] == '-') {
            usage();
            return 2;
        } else {
            files.push_back(a);
        }
    }
    if (store.empty()) {
        std::fprintf(stderr, "sweep_store: --store is required\n");
        return 2;
    }
    try {
        if (cmd == "add")
            return cmdAdd(store, label, commit, files);
        if (cmd == "list")
            return cmdList(store);
    } catch (const pp::jsonmin::JsonParseError &e) {
        std::fprintf(stderr, "sweep_store: %s\n", e.what());
        return 2;
    }
    usage();
    return 2;
}
