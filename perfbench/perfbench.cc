/**
 * @file
 * ggpu_perfbench: the measuring process of the host-performance
 * benchmark (perfbench/README.md). One workload per invocation:
 *
 *   paper-tiny    every figure binary at GGPU_SCALE=tiny, one at a
 *                 time, over one pre-filled trace cache, then the
 *                 summary merge
 *   engine-small  in process, at small scale: core::timeTrace over a
 *                 grid of timing configurations for a few traces, then
 *                 serve::runServing over seeded tapes x batchers
 *
 * The run does its set-up (emitting and verifying every trace the
 * timed phase needs), then the timed phase, then checks the simulated
 * output. The timed phase is a few identical passes; a pass is a fixed
 * list of steps (one child binary, one replay, one serving point), and
 * the phase's time is the sum over steps of each step's fastest pass.
 * With --trace 1 it instead runs one pass untraced and then one
 * traced, recording in-memory spans around the library calls, and
 * reports per-layer metrics. The last stdout line is one JSON object:
 * attempted/failed operation counts, failure reasons, the digest of
 * the simulated output, and the metrics with their units.
 *
 * Usage: ggpu_perfbench --workload W --seed N --seconds S --trace 0|1
 *                       --bench-dir DIR --work-dir DIR
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/json.hh"
#include "core/metrics.hh"
#include "core/metrics_merge.hh"
#include "core/suite.hh"
#include "core/trace_store.hh"
#include "serve/report.hh"
#include "serve/server.hh"
#include "sim/gpu.hh"
#include "sim/trace_serialize.hh"

extern char **environ;

namespace
{

using namespace ggpu;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;
namespace json = core::json;

/** Set-up repetitions of an untraced run, before and after the timed
 *  phase; setup_s is their median. A set-up takes well under a second
 *  and single ones vary by +-30% on a shared host, so the median needs
 *  many, taken at both ends of the run. */
constexpr int setupRepsBefore = 8;
constexpr int setupRepsAfter = 7;
/** Arrival rates of engine-small's tapes (requests per simulated
 *  second). */
const std::vector<double> serveRates = {1000.0, 4000.0, 16000.0};

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
seconds(const timeval &tv)
{
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

/** User + sys seconds of this process and every reaped child. */
double
cpuSeconds()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return seconds(self.ru_utime) + seconds(self.ru_stime) +
           seconds(children.ru_utime) + seconds(children.ru_stime);
}

long
minorFaults()
{
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return self.ru_minflt;
}

/** Largest resident set of this process or any reaped child, in MB. */
double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return double(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** @p object without its host-clock members. */
json::Value
withoutHostClock(const json::Value &object)
{
    json::Value out = json::Value::object();
    for (const auto &[key, value] : object.members())
        if (key != "cpu_seconds")
            out.set(key, value);
    return out;
}

/**
 * In-memory span recorder. A span's self time is its wall time minus
 * that of the spans opened inside it. Disabled, opening a span is one
 * branch and reads no clock.
 */
class Tracer
{
  public:
    class Span
    {
      public:
        explicit Span(Tracer *tracer) : tracer_(tracer) {}
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        ~Span()
        {
            if (tracer_)
                tracer_->close();
        }

      private:
        Tracer *tracer_;
    };

    bool enabled = false;

    Span
    span(const char *name)
    {
        if (!enabled)
            return Span(nullptr);
        stack_.push_back({name, Clock::now(), 0.0});
        return Span(this);
    }

    double
    self(const std::string &name) const
    {
        auto it = self_.find(name);
        return it == self_.end() ? 0.0 : it->second;
    }

  private:
    struct Frame
    {
        const char *name;
        Clock::time_point start;
        double child;
    };

    void
    close()
    {
        const Frame frame = stack_.back();
        stack_.pop_back();
        const double total = since(frame.start);
        self_[frame.name] += total - frame.child;
        if (!stack_.empty())
            stack_.back().child += total;
    }

    std::vector<Frame> stack_;
    std::map<std::string, double> self_;  //!< Self seconds per name
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 25.0;
    bool trace = false;
    std::string benchDir;
    std::string workDir;
};

/** One figure binary's run, as wait4 reports it. */
struct ChildRun
{
    double wall = 0.0, user = 0.0, sys = 0.0;
    long minorFaults = 0;
    int status = 0;
};

/**
 * What the traced phase simulated and how the host did it, per layer.
 * Workloads fill the parts their layers reach; everything else stays
 * zero and is reported as such.
 */
struct LayerData
{
    std::uint64_t records = 0;      //!< RunRecords (replays) produced
    std::set<std::string> distinct; //!< Their simulated outputs
    std::uint64_t cycles = 0, warpInsns = 0;
    std::uint64_t rated = 0;  //!< Runs/points in the rate sums below
    double l1 = 0.0, l2 = 0.0, dram = 0.0, noc = 0.0;
    sim::EngineStats engine;
    int engineCores = 0;

    std::uint64_t emissions = 0;
    double cpuRefSeconds = 0.0;
    double traceMb = 0.0;
    std::uint64_t storeHits = 0, storeDiskHits = 0, storeEmissions = 0,
                  storeCorrupt = 0;
    long deviceFaults = 0;
    double artifactMb = 0.0;

    std::uint64_t points = 0, batches = 0, served = 0;
    double streamUtil = 0.0;  //!< Sum over points of the mean stream
    std::map<double, double> p99Ms, readsPerSec;

    std::map<std::string, ChildRun> children;

    /** Fold one simulated run (a bench.v1 "runs" element) in. */
    void
    addRun(const json::Value &run)
    {
        ++records;
        json::Value key = withoutHostClock(run);
        key.set("config", "");
        distinct.insert(key.dump(0));
        cycles += std::uint64_t(run.at("kernel_cycles").asNumber());
        warpInsns += std::uint64_t(run.at("instructions").asNumber());
        addRates(run.at("l1_miss_rate").asNumber(),
                 run.at("l2_miss_rate").asNumber(),
                 run.at("dram_efficiency").asNumber(),
                 run.at("noc_avg_latency").asNumber());
    }

    void
    addRates(double l1_miss, double l2_miss, double dram_eff,
             double noc_latency)
    {
        ++rated;
        l1 += l1_miss;
        l2 += l2_miss;
        dram += dram_eff;
        noc += noc_latency;
    }

    /** Fold one serving point (a serving.v1 "points" element) in. Its
     *  modelled memory rates are not in the point; callers add them. */
    void
    addServingPoint(const json::Value &point)
    {
        ++points;
        const json::Value &device = point.at("device");
        cycles += std::uint64_t(point.at("makespan_cycles").asNumber());
        warpInsns += std::uint64_t(device.at("instructions").asNumber());
        batches += std::uint64_t(point.at("batches").asNumber());
        served += std::uint64_t(point.at("served").asNumber());
        const json::Value &util = point.at("stream_utilization");
        double busy = 0.0;
        for (std::size_t i = 0; i < util.size(); ++i)
            busy += util.at(i).asNumber();
        streamUtil += util.size() ? busy / double(util.size()) : 0.0;
        // Per-rate figures: the Poisson tape under the fifo batcher on
        // two streams.
        const json::Value &arrival = point.at("arrival");
        if (arrival.at("process").asString() == "poisson" &&
            point.at("batcher").at("policy").asString() == "fifo" &&
            point.at("streams").asNumber() == 2) {
            const double rate = arrival.at("rate_per_sec").asNumber();
            p99Ms[rate] = point.at("latency_ms").at("p99").asNumber();
            readsPerSec[rate] = point.at("reads_per_sec").asNumber();
        }
    }
};

/** Operations and their verdicts, shared by set-up and phases. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  //!< The first few reasons

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 16)
            failures.push_back(what);
    }
};

/** Host time of one step of a pass. */
struct Step
{
    std::string name;
    double wall = 0.0, cpu = 0.0;
};

/** Outcome of the timed phase, or of one pass of it. */
struct Pass
{
    double wall = 0.0, cpu = 0.0;
    std::uint64_t warpInsns = 0;
    std::string simulated;  //!< Canonical simulated output (digested)
};

class Workload
{
  public:
    Workload(const Options &options, Tracer &tracer, Ledger &ledger)
        : opt_(options), tracer_(tracer), ledger_(ledger)
    {}
    virtual ~Workload() = default;

    /** Emit and verify every trace the timed phase needs. */
    virtual void setup() = 0;

    /** Run one pass of the timed work as a fixed list of step()s. */
    virtual void run() = 0;

    /** Check the pass's output and fill @p pass and the layer data;
     *  untimed. */
    virtual void inspect(Pass &pass) = 0;

    /** System configurations whose devices the workload builds. */
    virtual std::vector<SystemConfig> deviceConfigs() const = 0;

    /** Traces the workload replays (for the serialize round trip). */
    virtual std::vector<const sim::TraceBundle *> bundles() const = 0;

    /** Share of --seconds one timed pass is given: an untraced run
     *  times one pass per share, rounded, and at least one. */
    virtual double passSeconds() const = 0;

    LayerData layers;
    std::vector<Step> steps;  //!< Of the last pass

  protected:
    /** Run @p body as the next timed step of the pass, named @p name. */
    template <class Body>
    void
    step(const std::string &name, Body &&body)
    {
        const double cpu0 = cpuSeconds();
        const auto start = Clock::now();
        body();
        steps.push_back({name, since(start), cpuSeconds() - cpu0});
    }

    /** TraceStore emitter that records emission spans and counts. */
    core::TraceStore::Emitter
    tracedEmitter()
    {
        return [this](const std::string &app,
                      const kernels::AppOptions &options,
                      std::uint32_t line_bytes) {
            auto span = tracer_.span("core.emit");
            sim::TraceBundle bundle =
                core::emitTrace(app, options, line_bytes);
            ++layers.emissions;
            layers.cpuRefSeconds += bundle.cpuReferenceSeconds;
            return bundle;
        };
    }

    const sim::TraceBundle &
    getVerified(core::TraceStore &store, const std::string &app,
                const kernels::AppOptions &options)
    {
        const sim::TraceBundle &bundle = store.get(app, options, 128);
        ledger_.check(bundle.verified,
                      "emission of " + core::traceStoreKey(app, options,
                                                           128) +
                          " failed verification: " + bundle.detail);
        return bundle;
    }

    const Options &opt_;
    Tracer &tracer_;
    Ledger &ledger_;
};

// ---------------------------------------------------------------- paper

/** Every figure binary at tiny scale over one shared trace cache. */
class PaperTiny : public Workload
{
  public:
    using Workload::Workload;

    void
    setup() override
    {
        fs::remove_all(cacheDir());
        core::TraceStore store(cacheDir());
        store.setEmitter(tracedEmitter());
        layers.traceMb = 0.0;
        for (const auto &[app, options] : keys()) {
            getVerified(store, app, options);
            // The children only ever read the file: check it loads
            // back to a bundle that serializes to the same bytes.
            const std::string path =
                store.cacheFilePath(app, options, 128);
            std::ifstream in(path, std::ios::binary);
            std::ostringstream bytes;
            bytes << in.rdbuf();
            const std::string image = bytes.str();
            layers.traceMb += double(image.size()) / 1e6;
            sim::TraceBundle loaded;
            bool ok;
            {
                auto span = tracer_.span("sim.deserialize");
                ok = sim::deserializeBundle(image, loaded);
            }
            std::string again;
            if (ok) {
                auto span = tracer_.span("sim.serialize");
                again = sim::serializeBundle(loaded);
            }
            ledger_.check(ok && loaded.verified && again == image,
                          "trace cache file " + path +
                              " does not round-trip");
        }
    }

    void
    run() override
    {
        std::ofstream status;
        step("prepare", [&] {
            fs::remove_all(jsonDir());
            fs::create_directories(jsonDir());
            fs::create_directories(logDir());
            status.open(statusPath());
        });
        for (const std::string &name : binaries(opt_.benchDir)) {
            step(name, [&] {
                const ChildRun child = spawn(name);
                layers.children[name] = child;
                status << name << " "
                       << (WIFEXITED(child.status)
                               ? WEXITSTATUS(child.status)
                               : 128)
                       << "\n";
            });
        }
        step("merge", [&] {
            status.close();
            json::Value summary;
            {
                auto span = tracer_.span("core.merge");
                summary =
                    core::mergeBenchArtifacts(jsonDir(), statusPath());
            }
            auto span = tracer_.span("core.artifact_write");
            core::writeJsonFile(jsonDir() + "/BENCH_SUMMARY.json", summary);
        });
    }

    void
    inspect(Pass &pass) override
    {
        for (const auto &[name, child] : layers.children)
            ledger_.check(WIFEXITED(child.status) &&
                              WEXITSTATUS(child.status) == 0,
                          name + " exited with status " +
                              std::to_string(child.status));
        std::vector<fs::path> artifacts;
        for (const auto &entry : fs::directory_iterator(jsonDir()))
            if (entry.path().filename().string().rfind("BENCH_", 0) == 0 &&
                entry.path().filename() != "BENCH_SUMMARY.json")
                artifacts.push_back(entry.path());
        std::sort(artifacts.begin(), artifacts.end());
        layers.artifactMb = 0.0;
        for (const fs::path &path : artifacts) {
            layers.artifactMb += double(fs::file_size(path)) / 1e6;
            const json::Value doc = core::readJsonFile(path.string());
            pass.simulated += path.filename().string() + "\n";
            if (const json::Value *runs = doc.find("runs")) {
                for (std::size_t i = 0; i < runs->size(); ++i) {
                    const json::Value &run = runs->at(i);
                    ledger_.check(run.at("verified").asBool(),
                                  path.filename().string() + " run " +
                                      run.at("label").asString() +
                                      " not verified");
                    layers.addRun(run);
                    pass.warpInsns += std::uint64_t(
                        run.at("instructions").asNumber());
                    pass.simulated += withoutHostClock(run).dump(0) + "\n";
                }
            }
            if (const json::Value *points = doc.find("points")) {
                for (std::size_t i = 0; i < points->size(); ++i) {
                    const json::Value &point = points->at(i);
                    ledger_.check(point.at("served").asNumber() ==
                                      point.at("requests").asNumber(),
                                  path.filename().string() + " point " +
                                      point.at("label").asString() +
                                      " left requests unserved");
                    pass.warpInsns += std::uint64_t(
                        point.at("device").at("instructions").asNumber());
                    layers.addServingPoint(point);
                    pass.simulated += point.dump(0) + "\n";
                }
            }
            if (const json::Value *store = doc.find("trace_store")) {
                auto counter = [&](const char *key) {
                    const json::Value *v = store->find(key);
                    return v ? std::uint64_t(v->asNumber()) : 0;
                };
                layers.storeHits += counter("hits");
                layers.storeDiskHits += counter("disk_hits");
                layers.storeEmissions += counter("emissions");
                layers.storeCorrupt += counter("corrupt_rejects");
            }
        }
        ledger_.check(!artifacts.empty(), "no BENCH_*.json written");
    }

    std::vector<SystemConfig>
    deviceConfigs() const override
    {
        // Table I baseline plus the Fig 12 cache points, which carry
        // the largest tag arrays of the figure sweeps.
        std::vector<SystemConfig> configs(1);
        for (const auto &[l1, l2] : GpuConfig::cacheSweep()) {
            SystemConfig cfg;
            cfg.gpu.l1SizeBytes = l1;
            cfg.gpu.l2SizeBytes = l2;
            configs.push_back(cfg);
        }
        return configs;
    }

    std::vector<const sim::TraceBundle *>
    bundles() const override
    {
        return {};  // Round-tripped from disk during set-up instead.
    }

    /** A pass takes 14-17 s on 4 vCPUs: three in a 45 s run. */
    double passSeconds() const override { return 15.0; }

    /** Figure binaries, as run_benches.sh finds them. */
    static std::vector<std::string>
    binaries(const std::string &dir)
    {
        std::vector<std::string> names;
        for (const auto &entry : fs::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("bench_", 0) == 0 && entry.is_regular_file() &&
                ::access(entry.path().c_str(), X_OK) == 0)
                names.push_back(name);
        }
        std::sort(names.begin(), names.end());
        return names;
    }

  private:
    std::string cacheDir() const { return opt_.workDir + "/trace_cache"; }
    std::string jsonDir() const { return opt_.workDir + "/json"; }
    std::string logDir() const { return opt_.workDir + "/logs"; }
    std::string statusPath() const { return opt_.workDir + "/status.txt"; }

    /** Trace keys the figure binaries read at tiny scale (default
     *  seed): every app with and without CDP, plus Fig 7's
     *  shared-memory-off variants. */
    static std::vector<std::pair<std::string, kernels::AppOptions>>
    keys()
    {
        std::vector<std::pair<std::string, kernels::AppOptions>> out;
        kernels::AppOptions options;
        options.scale = kernels::InputScale::Tiny;
        for (const std::string &app : core::appNames()) {
            for (const bool cdp : {false, true}) {
                options.cdp = cdp;
                out.emplace_back(app, options);
            }
        }
        options.cdp = false;
        options.sharedMem = false;
        for (const std::string app : {"NW", "PairHMM"})
            out.emplace_back(app, options);
        return out;
    }

    ChildRun
    spawn(const std::string &name)
    {
        std::vector<std::string> env_storage;
        for (char **e = environ; *e; ++e)
            if (std::strncmp(*e, "GGPU_", 5) != 0)
                env_storage.emplace_back(*e);
        env_storage.push_back("GGPU_SCALE=tiny");
        env_storage.push_back("GGPU_THREADS=1");
        env_storage.push_back("GGPU_TRACE_CACHE=" + cacheDir());
        env_storage.push_back("GGPU_JSON=" + jsonDir());
        std::vector<char *> envp;
        for (std::string &s : env_storage)
            envp.push_back(s.data());
        envp.push_back(nullptr);

        std::string path = opt_.benchDir + "/" + name;
        std::string flag = "--benchmark_min_warmup_time=0";
        char *argv[] = {path.data(), flag.data(), nullptr};

        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        const std::string log = logDir() + "/" + name + ".log";
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);

        ChildRun child;
        const auto start = Clock::now();
        pid_t pid = 0;
        const int err = posix_spawn(&pid, path.c_str(), &actions, nullptr,
                                    argv, envp.data());
        posix_spawn_file_actions_destroy(&actions);
        if (err != 0) {
            child.status = 127 << 8;
            return child;
        }
        rusage usage{};
        while (wait4(pid, &child.status, 0, &usage) < 0 && errno == EINTR) {}
        child.wall = since(start);
        child.user = seconds(usage.ru_utime);
        child.sys = seconds(usage.ru_stime);
        child.minorFaults = usage.ru_minflt;
        return child;
    }
};

// --------------------------------------------------------------- engine

/**
 * In process, at small scale: core::timeTrace over distinct timing
 * configurations, then serve::runServing over seeded tapes x batchers.
 */
class EngineSmall : public Workload
{
  public:
    using Workload::Workload;

    void
    setup() override
    {
        store_ = std::make_unique<core::TraceStore>("");
        store_->setEmitter(tracedEmitter());
        sweepBundles_.clear();
        kernels::AppOptions options;
        options.scale = kernels::InputScale::Small;
        options.seed = opt_.seed;
        // Compute-bound SW and GKSW, memory-bound NvB and CLUSTER, and
        // one CDP variant.
        for (const auto &[app, cdp] :
             std::vector<std::pair<std::string, bool>>{{"SW", false},
                                                       {"GKSW", false},
                                                       {"NvB", false},
                                                       {"CLUSTER", false},
                                                       {"SW", true}}) {
            options.cdp = cdp;
            sweepBundles_.push_back(&getVerified(*store_, app, options));
        }
        tapes_.clear();
        for (const serve::ArrivalProcess process :
             {serve::ArrivalProcess::Poisson,
              serve::ArrivalProcess::Bursty}) {
            for (const double rate : serveRates) {
                serve::TapeConfig tape;
                tape.process = process;
                tape.ratePerSec = rate;
                tape.requests = tapeRequests;
                tape.seed = opt_.seed;
                tape.coreClockGhz = serveConfig().system.gpu.coreClockGhz;
                tape.apps = {"SW", "GL"};
                auto span = tracer_.span("serve.tape");
                tapes_.push_back(serve::generateTape(tape));
            }
        }
        // The stream templates runServing reads from the store.
        kernels::AppOptions templ;
        templ.scale = serveConfig().scale;
        serveBundles_.clear();
        for (const std::string app : {"SW", "GL"})
            serveBundles_.push_back(&getVerified(*store_, app, templ));
    }

    void
    run() override
    {
        records_.clear();
        points_.clear();
        results_.clear();
        telemetry_ = {};
        const std::uint64_t hits = store_->hits();
        const std::uint64_t emissions = store_->emissions();

        core::MetricsSink sink("perfbench_sweep", "small", 1);
        const auto configs = grid();
        for (std::size_t i = 0; i < sweepBundles_.size(); ++i) {
            const sim::TraceBundle &bundle = *sweepBundles_[i];
            const auto &[label, system] = configs[i];
            step(bundle.app + "/" + label, [&] {
                core::ReplayTelemetry telemetry;
                core::RunRecord record;
                {
                    auto span = tracer_.span("core.replay");
                    record = core::timeTrace(bundle, system, &telemetry);
                }
                telemetry_.iterations += telemetry.engine.iterations;
                telemetry_.smTicks += telemetry.engine.smTicks;
                telemetry_.cycles += telemetry.engine.cycles;
                sink.addRun(label, record);
                records_.emplace_back(label, std::move(record));
            });
        }
        step("sweep-artifact", [&] {
            auto span = tracer_.span("core.artifact_write");
            sink.writeFile(sweepPath());
        });

        for (const serve::RequestTape &tape : tapes_) {
            // Poisson tapes under the fifo batcher, bursty ones under
            // the length-binned one.
            const serve::BatchPolicy policy =
                tape.config.process == serve::ArrivalProcess::Poisson
                    ? serve::BatchPolicy::Fifo
                    : serve::BatchPolicy::LengthBinned;
            const std::string label =
                std::string(
                    serve::arrivalProcessName(tape.config.process)) +
                "-" + std::to_string(std::uint64_t(tape.config.ratePerSec)) +
                "/" + serve::policyName(policy);
            step(label, [&] {
                serve::ServeConfig cfg = serveConfig();
                cfg.batcher.policy = policy;
                serve::ServeResult result;
                {
                    auto span = tracer_.span("serve.run");
                    result = serve::runServing(tape, cfg, *store_);
                }
                points_.push_back(
                    serve::pointToJson(label, tape, cfg, result));
                results_.push_back(std::move(result));
            });
        }
        step("serving-artifact", [&] {
            const json::Value doc = serve::buildServingArtifact(
                "small", 1, opt_.seed, points_);
            serve::validateServingArtifact(servingPath(), doc);
            auto span = tracer_.span("core.artifact_write");
            core::writeJsonFile(servingPath(), doc);
        });
        layers.storeHits = store_->hits() - hits;
        layers.storeEmissions = store_->emissions() - emissions;
    }

    void
    inspect(Pass &pass) override
    {
        layers.engine = telemetry_;
        layers.engineCores = SystemConfig{}.gpu.numCores;
        layers.artifactMb = double(fs::file_size(sweepPath()) +
                                   fs::file_size(servingPath())) /
                            1e6;
        for (const auto &[label, record] : records_) {
            ledger_.check(record.verified, "replay " + label + "/" +
                                               record.label() +
                                               " not verified");
            const json::Value run =
                core::MetricsSink::runToJson(label, record);
            layers.addRun(run);
            pass.warpInsns += record.stats.totalInsns();
            pass.simulated += withoutHostClock(run).dump(0) + "\n";
        }
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const serve::ServeResult &result = results_[i];
            const json::Value &point = points_[i];
            ledger_.check(result.served == result.requests,
                          "serving point " +
                              point.at("label").asString() +
                              " left requests unserved");
            pass.warpInsns += result.stats.totalInsns();
            pass.simulated += point.dump(0) + "\n";
            layers.addServingPoint(point);
            const sim::SimStats &stats = result.stats;
            layers.addRates(stats.l1MissRate(), stats.l2MissRate(),
                            stats.dramEfficiency(),
                            stats.nocPackets
                                ? double(stats.nocLatencySum) /
                                      double(stats.nocPackets)
                                : 0.0);
        }
    }

    std::vector<SystemConfig>
    deviceConfigs() const override
    {
        std::vector<SystemConfig> configs;
        for (const auto &[label, system] : grid())
            configs.push_back(system);
        configs.push_back(serveConfig().system);
        return configs;
    }

    std::vector<const sim::TraceBundle *>
    bundles() const override
    {
        std::vector<const sim::TraceBundle *> out = sweepBundles_;
        out.insert(out.end(), serveBundles_.begin(), serveBundles_.end());
        return out;
    }

    /** A pass takes 2-3 s on 4 vCPUs: twenty in a 45 s run.
     *  The host is fast only in moments a few seconds apart, so a step
     *  needs that many passes for its fastest to be one of them. */
    double passSeconds() const override { return 2.25; }

  private:
    /** Requests per serving tape. */
    static constexpr std::uint64_t tapeRequests = 20;

    std::string
    sweepPath() const
    {
        return opt_.workDir + "/BENCH_perfbench_sweep.json";
    }

    std::string
    servingPath() const
    {
        return opt_.workDir + "/BENCH_perfbench_serving.json";
    }

    /** One timing configuration per sweep trace, at Table I cache
     *  sizes: between them every DRAM scheduler, warp scheduler and NoC
     *  topology. */
    static std::vector<std::pair<std::string, SystemConfig>>
    grid()
    {
        const MemSchedPolicy mems[] = {MemSchedPolicy::FrFcfs,
                                       MemSchedPolicy::Fifo};
        const WarpSchedPolicy warps[] = {WarpSchedPolicy::Lrr,
                                         WarpSchedPolicy::Gto,
                                         WarpSchedPolicy::Oldest};
        const NocTopology topologies[] = {
            NocTopology::Xbar, NocTopology::Mesh, NocTopology::FatTree,
            NocTopology::Butterfly};
        std::vector<std::pair<std::string, SystemConfig>> out;
        for (int i = 0; i < 5; ++i) {
            SystemConfig system;
            system.gpu.memSched = mems[i % 2];
            system.gpu.warpSched = warps[i % 3];
            system.noc.topology = topologies[i % 4];
            out.emplace_back(toString(system.gpu.memSched) + "/" +
                                 toString(system.gpu.warpSched) + "/" +
                                 toString(system.noc.topology),
                             system);
        }
        return out;
    }

    /** bench_serving's device, batcher and stream settings. */
    static serve::ServeConfig
    serveConfig()
    {
        serve::ServeConfig cfg;
        cfg.scale = kernels::InputScale::Small;
        cfg.batcher.maxBatch = 24;
        cfg.batcher.timeout =
            Cycles(200.0 * cfg.system.gpu.coreClockGhz * 1e3);
        cfg.streams = 2;
        return cfg;
    }

    std::unique_ptr<core::TraceStore> store_;
    std::vector<const sim::TraceBundle *> sweepBundles_, serveBundles_;
    std::vector<std::pair<std::string, core::RunRecord>> records_;
    sim::EngineStats telemetry_;
    std::vector<serve::RequestTape> tapes_;
    std::vector<json::Value> points_;
    std::vector<serve::ServeResult> results_;
};

// ----------------------------------------------------------------- main

std::unique_ptr<Workload>
makeWorkload(const Options &opt, Tracer &tracer, Ledger &ledger)
{
    if (opt.workload == "paper-tiny")
        return std::make_unique<PaperTiny>(opt, tracer, ledger);
    if (opt.workload == "engine-small")
        return std::make_unique<EngineSmall>(opt, tracer, ledger);
    return nullptr;
}

/**
 * The timed phase: @p passes identical passes, each checked. Its wall
 * and cpu are sums over the pass's steps of each step's least time over
 * the passes: the host's speed swings from second to second, and a
 * step's fastest pass is the least disturbed measure of its work.
 */
Pass
measure(Workload &workload, int passes, Ledger &ledger)
{
    std::vector<Step> best;
    Pass first;
    for (int i = 0; i < passes; ++i) {
        Pass pass;
        workload.steps.clear();
        workload.run();
        workload.inspect(pass);
        if (i == 0) {
            first = std::move(pass);
            best = workload.steps;
            continue;
        }
        ledger.check(pass.simulated == first.simulated,
                     "pass " + std::to_string(i + 1) +
                         " simulated output differs from pass 1");
        if (workload.steps.size() != best.size())
            throw std::runtime_error("passes ran different steps");
        for (std::size_t k = 0; k < best.size(); ++k) {
            if (workload.steps[k].name != best[k].name)
                throw std::runtime_error("passes ran different steps");
            best[k].wall = std::min(best[k].wall, workload.steps[k].wall);
            best[k].cpu = std::min(best[k].cpu, workload.steps[k].cpu);
        }
    }
    for (const Step &step : best) {
        first.wall += step.wall;
        first.cpu += step.cpu;
    }
    return first;
}

void
put(json::Value &metrics, const std::string &name, double value,
    const char *unit)
{
    json::Value metric = json::Value::object();
    metric.set("value", value);
    metric.set("unit", unit);
    metrics.set(name, std::move(metric));
}

/** The per-layer metrics of a traced run (perfbench/README.md). */
json::Value
layerMetrics(const Workload &workload, const Tracer &tracer,
             const Pass &untraced, const Pass &traced, const Options &opt)
{
    const LayerData &d = workload.layers;
    json::Value m = json::Value::object();
    put(m, "trace.overhead_s", traced.wall - untraced.wall, "s");

    put(m, "core.emit_s", tracer.self("core.emit"), "s");
    put(m, "core.emissions", double(d.emissions), "count");
    put(m, "genomics.cpu_ref_s", d.cpuRefSeconds, "s");

    put(m, "sim.serialize_s", tracer.self("sim.serialize"), "s");
    put(m, "sim.deserialize_s", tracer.self("sim.deserialize"), "s");
    put(m, "sim.trace_mb", d.traceMb, "MB");
    put(m, "core.store_hits", double(d.storeHits), "count");
    put(m, "core.store_disk_hits", double(d.storeDiskHits), "count");
    put(m, "core.store_emissions", double(d.storeEmissions), "count");
    put(m, "core.store_corrupt_rejects", double(d.storeCorrupt), "count");

    put(m, "sim.device_build_s", tracer.self("sim.device_build"), "s");
    put(m, "sim.device_minor_faults", double(d.deviceFaults), "count");

    const double replay_s = tracer.self("core.replay");
    put(m, "core.replay_s", replay_s, "s");
    put(m, "core.replays", double(d.records), "count");
    put(m, "core.replay_distinct_frac",
        d.records ? double(d.distinct.size()) / double(d.records) : 0.0,
        "ratio");

    const double n = d.rated ? double(d.rated) : 1.0;
    put(m, "sim.cycles", double(d.cycles), "cycles");
    put(m, "sim.warp_insns", double(d.warpInsns), "count");
    put(m, "sim.engine_iterations", double(d.engine.iterations), "count");
    put(m, "sim.sm_ticks", double(d.engine.smTicks), "count");
    put(m, "sim.skipped_sm_frac",
        d.engine.skippedSmTickFraction(d.engineCores), "ratio");
    put(m, "sim.replay_warp_insns_per_s",
        replay_s > 0.0 ? double(d.warpInsns) / replay_s : 0.0, "1/s");
    put(m, "mem.l1_miss_rate", d.l1 / n, "ratio");
    put(m, "mem.l2_miss_rate", d.l2 / n, "ratio");
    put(m, "mem.dram_efficiency", d.dram / n, "ratio");
    put(m, "noc.avg_latency_cycles", d.noc / n, "cycles");

    put(m, "serve.tape_s", tracer.self("serve.tape"), "s");
    put(m, "serve.run_s", tracer.self("serve.run"), "s");
    put(m, "serve.batches", double(d.batches), "count");
    put(m, "serve.served", double(d.served), "count");
    put(m, "serve.stream_util",
        d.points ? d.streamUtil / double(d.points) : 0.0, "ratio");
    for (const double rate : serveRates) {
        const std::string r = std::to_string(std::uint64_t(rate));
        auto at = [&](const std::map<double, double> &values) {
            auto it = values.find(rate);
            return it == values.end() ? 0.0 : it->second;
        };
        put(m, "serve.sim_p99_ms." + r, at(d.p99Ms), "ms");
        put(m, "serve.sim_reads_per_s." + r, at(d.readsPerSec), "1/s");
    }

    put(m, "core.artifact_write_s", tracer.self("core.artifact_write"),
        "s");
    put(m, "core.artifact_mb", d.artifactMb, "MB");
    put(m, "core.merge_s", tracer.self("core.merge"), "s");

    double user = 0.0;
    long faults = 0;
    for (const std::string &name : PaperTiny::binaries(opt.benchDir)) {
        auto it = d.children.find(name);
        const ChildRun child =
            it == d.children.end() ? ChildRun{} : it->second;
        const std::string id = name.substr(6);  // minus "bench_"
        put(m, "bench." + id + ".wall_s", child.wall, "s");
        put(m, "bench." + id + ".sys_s", child.sys, "s");
        user += child.user;
        faults += child.minorFaults;
    }
    put(m, "bench.user_s", user, "s");
    put(m, "bench.minor_faults", double(faults), "count");
    return m;
}

/** Traced-run probes outside the timed phase: build every device the
 *  workload builds, and round-trip its traces through the wire
 *  format. */
void
probe(Workload &workload, Tracer &tracer, Ledger &ledger)
{
    const long faults0 = minorFaults();
    for (const SystemConfig &system : workload.deviceConfigs()) {
        auto span = tracer.span("sim.device_build");
        sim::Gpu gpu(system);
    }
    workload.layers.deviceFaults = minorFaults() - faults0;
    for (const sim::TraceBundle *bundle : workload.bundles()) {
        std::string image;
        {
            auto span = tracer.span("sim.serialize");
            image = sim::serializeBundle(*bundle);
        }
        sim::TraceBundle loaded;
        bool ok;
        {
            auto span = tracer.span("sim.deserialize");
            ok = sim::deserializeBundle(image, loaded);
        }
        workload.layers.traceMb += double(image.size()) / 1e6;
        ledger.check(ok && sim::serializeBundle(loaded) == image,
                     "trace " + bundle->app + " does not round-trip");
    }
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            opt.workload = value;
        else if (key == "--seed")
            opt.seed = std::stoull(value);
        else if (key == "--seconds")
            opt.seconds = std::stod(value);
        else if (key == "--trace")
            opt.trace = value == "1";
        else if (key == "--bench-dir")
            opt.benchDir = value;
        else if (key == "--work-dir")
            opt.workDir = value;
        else
            return false;
    }
    return argc % 2 == 1 && !opt.workload.empty() &&
           !opt.benchDir.empty() && !opt.workDir.empty();
}

int
runMain(const Options &opt)
{
    // Hermetic: no GGPU_* knob from the caller reaches the library.
    std::vector<std::string> knobs;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "GGPU_", 5) == 0)
            knobs.emplace_back(*e, std::strchr(*e, '=') - *e);
    for (const std::string &knob : knobs)
        ::unsetenv(knob.c_str());
    ::setenv("GGPU_THREADS", "1", 1);
    fs::create_directories(opt.workDir);

    Tracer tracer;
    Ledger ledger;
    std::unique_ptr<Workload> workload = makeWorkload(opt, tracer, ledger);
    if (!workload) {
        std::cerr << "unknown workload '" << opt.workload << "'\n";
        return 2;
    }

    json::Value out = json::Value::object();
    json::Value metrics = json::Value::object();
    if (!opt.trace) {
        std::vector<double> setups;
        auto timedSetup = [&]() {
            const auto start = Clock::now();
            workload->setup();
            setups.push_back(since(start));
        };
        for (int i = 0; i < setupRepsBefore; ++i)
            timedSetup();
        const int passes = std::max(
            1, int(opt.seconds / workload->passSeconds() + 0.5));
        const Pass pass = measure(*workload, passes, ledger);
        for (int i = 0; i < setupRepsAfter; ++i)
            timedSetup();
        put(metrics, "setup_s", median(setups), "s");
        put(metrics, "wall_s", pass.wall, "s");
        put(metrics, "cpu_s", pass.cpu, "s");
        put(metrics, "warp_insns_per_s", double(pass.warpInsns) / pass.wall,
            "1/s");
        put(metrics, "peak_rss_mb", peakRssMb(), "MB");
        out.set("digest", hex64(sim::fnv1a64(pass.simulated.data(),
                                             pass.simulated.size())));
    } else {
        tracer.enabled = true;
        workload->setup();
        tracer.enabled = false;
        // One pass each: the per-layer data describe a single pass.
        const Pass untraced = measure(*workload, 1, ledger);
        // Layer data describes the traced pass only.
        const LayerData setupData = workload->layers;
        workload->layers = {};
        workload->layers.emissions = setupData.emissions;
        workload->layers.cpuRefSeconds = setupData.cpuRefSeconds;
        workload->layers.traceMb = setupData.traceMb;
        tracer.enabled = true;
        const Pass traced = measure(*workload, 1, ledger);
        probe(*workload, tracer, ledger);
        tracer.enabled = false;
        ledger.check(traced.simulated == untraced.simulated,
                     "traced and untraced simulated output differ");
        metrics = layerMetrics(*workload, tracer, untraced, traced, opt);
        out.set("digest", hex64(sim::fnv1a64(untraced.simulated.data(),
                                             untraced.simulated.size())));
    }
    out.set("attempted", ledger.attempted);
    out.set("failed", ledger.failed);
    json::Value failures = json::Value::array();
    for (const std::string &failure : ledger.failures)
        failures.push(failure);
    out.set("failures", std::move(failures));
    out.set("metrics", std::move(metrics));
    std::cout << out.dump(0) << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options opt;
        if (!parseArgs(argc, argv, opt)) {
            std::cerr << "usage: ggpu_perfbench --workload W --seed N "
                         "--seconds S --trace 0|1 --bench-dir DIR "
                         "--work-dir DIR\n";
            return 2;
        }
        return runMain(opt);
    } catch (const std::exception &e) {
        std::cerr << "ggpu_perfbench: " << e.what() << "\n";
        return 1;
    }
}
