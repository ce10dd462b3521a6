#include "driver/run_matrix.hh"

#include <regex>
#include <utility>

#include "common/logging.hh"

namespace pp
{
namespace driver
{

namespace
{

std::regex
compileRegex(const std::string &pattern)
{
    try {
        return std::regex(pattern);
    } catch (const std::regex_error &e) {
        fatal("invalid filter regex '" + pattern + "': " + e.what());
    }
}

} // namespace

std::string
RunSpec::label() const
{
    std::string l = binaryKey() + "/" + schemeName;
    if (!configName.empty())
        l += "/" + configName;
    if (!samplingName.empty())
        l += "/" + samplingName;
    return l;
}

RunMatrix::RunMatrix()
    : ifConvert_{false}, warmup_(sim::defaultWarmup()),
      measure_(sim::defaultInstructions())
{
}

RunMatrix &
RunMatrix::benchmarks(std::vector<program::BenchmarkProfile> suite)
{
    benchmarks_ = std::move(suite);
    return *this;
}

RunMatrix &
RunMatrix::addBenchmark(program::BenchmarkProfile profile)
{
    benchmarks_.push_back(std::move(profile));
    return *this;
}

RunMatrix &
RunMatrix::addScheme(std::string name, sim::SchemeConfig scheme)
{
    schemes_.push_back({std::move(name), scheme});
    return *this;
}

RunMatrix &
RunMatrix::addConfig(std::string name, core::CoreConfig config)
{
    configs_.push_back({std::move(name), config});
    return *this;
}

RunMatrix &
RunMatrix::addSampling(std::string name, sampling::SamplingPolicy policy)
{
    samplings_.push_back({std::move(name), policy});
    return *this;
}

RunMatrix &
RunMatrix::ifConvert(bool on)
{
    ifConvert_ = {on};
    return *this;
}

RunMatrix &
RunMatrix::ifConvertBoth()
{
    ifConvert_ = {false, true};
    return *this;
}

RunMatrix &
RunMatrix::window(std::uint64_t warmup_insts, std::uint64_t measure_insts)
{
    warmup_ = warmup_insts;
    measure_ = measure_insts;
    return *this;
}

RunMatrix &
RunMatrix::filterBenchmarks(const std::string &regex)
{
    if (regex.empty())
        return *this;
    const std::regex re = compileRegex(regex);
    std::vector<program::BenchmarkProfile> kept;
    for (auto &p : benchmarks_)
        if (std::regex_search(p.name, re))
            kept.push_back(std::move(p));
    benchmarks_ = std::move(kept);
    return *this;
}

std::vector<RunSpec>
RunMatrix::specs() const
{
    // Default axes so a matrix with only benchmarks set still runs.
    std::vector<SchemeAxis> schemes = schemes_;
    if (schemes.empty())
        schemes.push_back({"conventional", sim::SchemeConfig{}});
    std::vector<ConfigAxis> configs = configs_;
    if (configs.empty())
        configs.push_back({"", core::CoreConfig{}});
    std::vector<SamplingAxis> samplings = samplings_;
    if (samplings.empty())
        samplings.push_back({"", sampling::SamplingPolicy{}});

    std::vector<RunSpec> out;
    out.reserve(benchmarks_.size() * ifConvert_.size() * schemes.size() *
                configs.size() * samplings.size());
    for (const auto &prof : benchmarks_) {
        for (const bool ifc : ifConvert_) {
            for (const auto &sch : schemes) {
                for (const auto &cfg : configs) {
                    for (const auto &smp : samplings) {
                        RunSpec s;
                        s.profile = prof;
                        s.ifConvert = ifc;
                        s.schemeName = sch.name;
                        s.scheme = sch.scheme;
                        s.configName = cfg.name;
                        s.config = cfg.config;
                        s.samplingName = smp.name;
                        s.sampling = smp.policy;
                        s.warmupInsts = warmup_;
                        s.measureInsts = measure_;
                        out.push_back(std::move(s));
                    }
                }
            }
        }
    }
    return out;
}

} // namespace driver
} // namespace pp
