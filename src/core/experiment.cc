#include "core/experiment.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "axbench/registry.hh"
#include "common/contracts.hh"
#include "common/env_registry.hh"
#include "common/parallel.hh"
#include "common/scale.hh"
#include "telemetry/telemetry.hh"

namespace mithra::core
{

std::string
designName(Design design)
{
    switch (design) {
      case Design::FullApprox: return "full-approx";
      case Design::Oracle: return "oracle";
      case Design::Table: return "table";
      case Design::Neural: return "neural";
      case Design::Random: return "random";
    }
    panic("unknown design");
}

ResultCache::ResultCache(const std::string &path)
    : filePath(path)
{
    load();
}

void
ResultCache::load()
{
    std::ifstream in(filePath);
    if (!in)
        return;
    std::string line;
    while (std::getline(in, line)) {
        const auto tab = line.find('\t');
        if (tab == std::string::npos)
            continue;
        entries[line.substr(0, tab)] = line.substr(tab + 1);
    }
}

std::optional<std::string>
ResultCache::get(const std::string &key) const
{
    const auto it = entries.find(key);
    if (it == entries.end())
        return std::nullopt;
    return it->second;
}

void
ResultCache::put(const std::string &key, const std::string &value)
{
    entries[key] = value;
    append(key, value);
}

std::size_t
ResultCache::refresh()
{
    std::ifstream in(filePath);
    if (!in)
        return 0;
    std::size_t adopted = 0;
    std::string line;
    while (std::getline(in, line)) {
        const auto tab = line.find('\t');
        if (tab == std::string::npos)
            continue;
        // emplace never overwrites: the in-memory value wins.
        if (entries.emplace(line.substr(0, tab), line.substr(tab + 1))
                .second)
            ++adopted;
    }
    return adopted;
}

void
ResultCache::append(const std::string &key, const std::string &value)
{
    // One whole-line write(2) under an advisory exclusive lock:
    // concurrent appenders to a shared $MITHRA_CACHE serialize at row
    // granularity, so readers never see a torn row. O_APPEND makes the
    // kernel pick the offset after the lock is held.
    const int fd = ::open(filePath.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
        warn("cannot append to result cache at ", filePath);
        return;
    }
    std::string row;
    row.reserve(key.size() + value.size() + 2);
    row += key;
    row += '\t';
    row += value;
    row += '\n';
    if (::flock(fd, LOCK_EX) != 0) {
        warn("cannot lock result cache at ", filePath);
        ::close(fd);
        return;
    }
    std::size_t written = 0;
    while (written < row.size()) {
        const ssize_t n = ::write(fd, row.data() + written,
                                  row.size() - written);
        if (n <= 0) {
            warn("short write to result cache at ", filePath);
            break;
        }
        written += static_cast<std::size_t>(n);
    }
    ::flock(fd, LOCK_UN);
    ::close(fd);
}

bool
RunOptions::isDefault() const
{
    const hw::TableGeometry defaults{};
    return geometry.numTables == defaults.numTables
        && geometry.tableBytes == defaults.tableBytes
        && quantizerBits == 0 && onlineUpdates && !skipCalibration
        && randomPreciseFraction == 0.0;
}

namespace
{

std::string
cachePath()
{
    return env::text("MITHRA_CACHE", ".mithra-cache.tsv");
}

std::string
serializeRecord(const ExperimentRecord &record)
{
    const auto &e = record.eval;
    std::ostringstream os;
    os.precision(17);
    os << e.kind << ' ' << e.meanQualityLoss << ' ' << e.p99QualityLoss
       << ' ' << e.successes << ' ' << e.trials << ' '
       << e.successLowerBound << ' ' << e.invocationRate << ' '
       << e.speedup << ' ' << e.energyReduction << ' '
       << e.edpImprovement << ' ' << e.falsePositiveRate << ' '
       << e.falseNegativeRate << ' ' << e.totals.cycles << ' '
       << e.totals.energyPj << ' ' << e.baselineTotals.cycles << ' '
       << e.baselineTotals.energyPj << ' ' << record.threshold << ' '
       << record.compressedBytes << ' '
       << (record.topology.empty() ? "-" : record.topology);
    return os.str();
}

ExperimentRecord
parseRecord(const std::string &text)
{
    ExperimentRecord record;
    auto &e = record.eval;
    std::istringstream is(text);
    is >> e.kind >> e.meanQualityLoss >> e.p99QualityLoss >> e.successes
        >> e.trials >> e.successLowerBound >> e.invocationRate
        >> e.speedup >> e.energyReduction >> e.edpImprovement
        >> e.falsePositiveRate >> e.falseNegativeRate >> e.totals.cycles
        >> e.totals.energyPj >> e.baselineTotals.cycles
        >> e.baselineTotals.energyPj >> record.threshold
        >> record.compressedBytes >> record.topology;
    MITHRA_ASSERT(!is.fail(), "corrupt cache record: ", text);
    if (record.topology == "-")
        record.topology.clear();
    return record;
}

std::string
serializeWorkload(const WorkloadRecord &record)
{
    std::ostringstream os;
    os.precision(17);
    // Domain and metric names contain spaces; encode them with '_'.
    auto encode = [](std::string s) {
        for (auto &c : s)
            if (c == ' ')
                c = '_';
        return s;
    };
    os << encode(record.domain) << ' ' << encode(record.metricName)
       << ' ' << record.npuTopology << ' ' << record.fullApproxLossMean
       << ' ' << record.npuTrainMse << ' '
       << record.preciseCyclesPerInvocation << ' '
       << record.accelCyclesPerInvocation << ' '
       << record.invocationsPerDataset;
    return os.str();
}

WorkloadRecord
parseWorkload(const std::string &text)
{
    WorkloadRecord record;
    std::istringstream is(text);
    is >> record.domain >> record.metricName >> record.npuTopology
        >> record.fullApproxLossMean >> record.npuTrainMse
        >> record.preciseCyclesPerInvocation
        >> record.accelCyclesPerInvocation
        >> record.invocationsPerDataset;
    MITHRA_ASSERT(!is.fail(), "corrupt workload record: ", text);
    auto decode = [](std::string s) {
        for (auto &c : s)
            if (c == '_')
                c = ' ';
        return s;
    };
    record.domain = decode(record.domain);
    record.metricName = decode(record.metricName);
    return record;
}

} // namespace

ExperimentRunner::ExperimentRunner(const PipelineOptions &options)
    : pipeline(options), cache(cachePath())
{
}

std::string
ExperimentRunner::specKey(const QualitySpec &spec) const
{
    std::ostringstream os;
    os.precision(10);
    os << spec.maxQualityLossPct << ':' << spec.confidence << ':'
       << spec.successRate;
    return os.str();
}

std::string
ExperimentRunner::cacheKey(const std::string &benchmark,
                           const QualitySpec &spec, Design design,
                           const RunOptions &options) const
{
    std::ostringstream os;
    os.precision(10);
    // v6: the sharded decision loop moved online observations to
    // dataset boundaries, so evaluations are not bit-comparable with
    // v5 records even at one shard.
    os << "v6:" << benchmark;
    // Plugin workloads fold their origin and ABI version into the key:
    // a rebuilt plugin (or a future ABI) must never share cached
    // results with an older binary of the same name. Built-ins add
    // nothing, so their keys are unchanged from v6.
    const std::string pluginTag =
        axbench::WorkloadRegistry::global().cacheTag(benchmark);
    if (!pluginTag.empty())
        os << ":plugin=" << pluginTag;
    os << ':' << specKey(spec) << ':'
       << designName(design) << ':' << options.geometry.numTables << 'x'
       << options.geometry.tableBytes << ':' << options.quantizerBits
       << ':' << (options.onlineUpdates ? 1 : 0)
       << (options.skipCalibration ? ":nc" : "") << ':'
       << options.randomPreciseFraction << ":s"
       << experimentScale() << ":d"
       << pipeline.options().compileDatasetCount << ":x"
       << pipeline.options().seed;
    return os.str();
}

ExperimentRunner::LoadedWorkload &
ExperimentRunner::loaded(const std::string &benchmark)
{
    auto it = workloads.find(benchmark);
    if (it == workloads.end()) {
        LoadedWorkload entry;
        entry.workload = pipeline.compile(benchmark);
        entry.validation = makeValidationSet(entry.workload);
        it = workloads.emplace(benchmark, std::move(entry)).first;
    }
    return it->second;
}

const CompiledWorkload &
ExperimentRunner::workload(const std::string &benchmark)
{
    return loaded(benchmark).workload;
}

QualityPackage &
ExperimentRunner::qualityPackage(const std::string &benchmark,
                                 const QualitySpec &spec)
{
    auto &entry = loaded(benchmark);
    return package(entry, spec);
}

TableClassifier &
ExperimentRunner::tunedTableClassifier(const std::string &benchmark,
                                       const QualitySpec &spec)
{
    auto &entry = loaded(benchmark);
    QualityPackage &pkg = package(entry, spec);
    if (!pkg.table) {
        auto tuned = pipeline.tuneTable(entry.workload, spec,
                                        pkg.threshold,
                                        TableClassifierOptions{});
        pkg.table = std::move(tuned.classifier);
    }
    return *pkg.table;
}

void
ExperimentRunner::prefetch(const std::vector<std::string> &benchmarks)
{
    std::vector<std::string> missing;
    for (const auto &name : benchmarks) {
        if (!workloads.contains(name))
            missing.push_back(name);
    }
    if (missing.empty())
        return;

    // Build into local slots across the pool (each workload's own
    // parallel regions then run inline), and only then populate the
    // map serially — loaded() never observes a half-built entry.
    std::vector<LoadedWorkload> built(missing.size());
    parallelFor(0, missing.size(), 1, [&](std::size_t i) {
        built[i].workload = pipeline.compile(missing[i]);
        built[i].validation = makeValidationSet(built[i].workload);
    });
    for (std::size_t i = 0; i < missing.size(); ++i)
        workloads.emplace(missing[i], std::move(built[i]));
}

void
ExperimentRunner::prefetch(const std::vector<std::string> &benchmarks,
                           const std::vector<QualitySpec> &specs,
                           const std::vector<Design> &designs,
                           const RunOptions &options)
{
    std::vector<std::string> needed;
    for (const auto &name : benchmarks) {
        bool miss = false;
        for (const auto &spec : specs) {
            for (const Design design : designs) {
                if (!cache.get(cacheKey(name, spec, design, options))) {
                    miss = true;
                    break;
                }
            }
            if (miss)
                break;
        }
        if (miss)
            needed.push_back(name);
    }
    prefetch(needed);
}

void
ExperimentRunner::prefetchFacts(const std::vector<std::string> &benchmarks)
{
    std::vector<std::string> needed;
    for (const auto &name : benchmarks) {
        if (!cache.get(factsKey(name)))
            needed.push_back(name);
    }
    prefetch(needed);
}

QualityPackage &
ExperimentRunner::package(LoadedWorkload &entry, const QualitySpec &spec)
{
    const std::string key = specKey(spec);
    auto it = entry.packages.find(key);
    if (it == entry.packages.end()) {
        QualityPackage pkg;
        pkg.spec = spec;
        pkg.threshold = pipeline.tuneThreshold(entry.workload, spec);
        it = entry.packages.emplace(key, std::move(pkg)).first;
    }
    return it->second;
}

ExperimentRecord
ExperimentRunner::run(const std::string &benchmark,
                      const QualitySpec &spec, Design design,
                      const RunOptions &options)
{
    const std::string key = cacheKey(benchmark, spec, design, options);
    if (const auto cached = cache.get(key)) {
        MITHRA_COUNT("core.experiment.cache_hits", 1);
        return parseRecord(*cached);
    }
    MITHRA_COUNT("core.experiment.cache_misses", 1);

    LoadedWorkload &entry = loaded(benchmark);
    QualityPackage &pkg = package(entry, spec);
    const Evaluator evaluator(entry.workload, spec,
                              pkg.threshold.threshold);

    ExperimentRecord record;
    record.threshold = pkg.threshold.threshold;

    switch (design) {
      case Design::FullApprox:
        record.eval = evaluator.evaluateFullApprox(entry.validation);
        break;
      case Design::Oracle:
        record.eval = evaluator.evaluateOracle(entry.validation);
        break;
      case Design::Table: {
        TableClassifierOptions tableOpts;
        tableOpts.geometry = options.geometry;
        tableOpts.quantizerBits = options.quantizerBits;
        tableOpts.onlineUpdates = options.onlineUpdates;
        // Reuse the default-options classifier across binaries via the
        // package; bespoke options always retrain.
        if (options.isDefault() && pkg.table) {
            TableClassifier copy = *pkg.table; // keep cached one pristine
            record.eval = evaluator.evaluate(copy, entry.validation);
            record.compressedBytes = static_cast<double>(
                pkg.table->compressedSizeBytes());
        } else if (options.skipCalibration) {
            const TrainingData data = pipeline.makeTrainingData(
                entry.workload, pkg.threshold.threshold);
            auto trained = TableClassifier::train(data, tableOpts);
            record.compressedBytes =
                static_cast<double>(trained.compressedSizeBytes());
            record.eval = evaluator.evaluate(trained, entry.validation);
        } else {
            auto tuned = pipeline.tuneTable(entry.workload, spec,
                                            pkg.threshold, tableOpts);
            if (options.isDefault())
                pkg.table = std::move(tuned.classifier);
            TableClassifier &trained =
                options.isDefault() ? *pkg.table : *tuned.classifier;
            record.compressedBytes =
                static_cast<double>(trained.compressedSizeBytes());
            TableClassifier copy = trained;
            record.eval = evaluator.evaluate(copy, entry.validation);
        }
        break;
      }
      case Design::Neural: {
        if (!pkg.neural) {
            auto tuned = pipeline.tuneNeural(entry.workload, spec,
                                             pkg.threshold);
            pkg.neural = std::move(tuned.classifier);
        }
        record.eval = evaluator.evaluate(*pkg.neural, entry.validation);
        record.topology = npu::topologyName(pkg.neural->topology());
        record.compressedBytes =
            static_cast<double>(pkg.neural->configSizeBytes());
        break;
      }
      case Design::Random:
        record.eval = evaluator.evaluateRandom(
            entry.validation, options.randomPreciseFraction);
        break;
    }

    cache.put(key, serializeRecord(record));
    return record;
}

bool
ExperimentRunner::isCached(const std::string &benchmark,
                           const QualitySpec &spec, Design design,
                           const RunOptions &options) const
{
    return cache.get(cacheKey(benchmark, spec, design, options))
        .has_value();
}

std::vector<ExperimentRecord>
ExperimentRunner::runMany(const std::string &benchmark,
                          const QualitySpec &spec, Design design,
                          const std::vector<RunOptions> &optionsList)
{
    MITHRA_SPAN("core.experiment.run_many");
    std::vector<ExperimentRecord> records(optionsList.size());

    // Serve cached cells, and push everything the parallel fan-out
    // cannot reproduce bit-for-bit through the serial path. That
    // leaves the skipCalibration Table cells: they share one
    // training-data build and train/evaluate an independent classifier
    // per candidate, so they parallelize without touching shared
    // state.
    std::vector<std::size_t> fan;
    for (std::size_t i = 0; i < optionsList.size(); ++i) {
        const std::string key =
            cacheKey(benchmark, spec, design, optionsList[i]);
        if (const auto cached = cache.get(key)) {
            MITHRA_COUNT("core.experiment.cache_hits", 1);
            records[i] = parseRecord(*cached);
        } else if (design == Design::Table
                   && optionsList[i].skipCalibration) {
            fan.push_back(i);
        } else {
            records[i] = run(benchmark, spec, design, optionsList[i]);
        }
    }
    if (fan.empty())
        return records;
    MITHRA_COUNT("core.experiment.cache_misses", fan.size());

    LoadedWorkload &entry = loaded(benchmark);
    QualityPackage &pkg = package(entry, spec);
    const TrainingData data = pipeline.makeTrainingData(
        entry.workload, pkg.threshold.threshold);
    const Evaluator evaluator(entry.workload, spec,
                              pkg.threshold.threshold);

    parallelFor(0, fan.size(), 1, [&](std::size_t slot) {
        const std::size_t at = fan[slot];
        const RunOptions &options = optionsList[at];
        TableClassifierOptions tableOpts;
        tableOpts.geometry = options.geometry;
        tableOpts.quantizerBits = options.quantizerBits;
        tableOpts.onlineUpdates = options.onlineUpdates;
        ExperimentRecord record;
        record.threshold = pkg.threshold.threshold;
        auto trained = TableClassifier::train(data, tableOpts);
        record.compressedBytes =
            static_cast<double>(trained.compressedSizeBytes());
        record.eval = evaluator.evaluate(trained, entry.validation);
        records[at] = std::move(record);
    });

    // Slot-ordered merge: rows land in candidate order, exactly the
    // file serial run() calls would have produced.
    for (const std::size_t at : fan) {
        cache.put(cacheKey(benchmark, spec, design, optionsList[at]),
                  serializeRecord(records[at]));
    }
    return records;
}

std::string
ExperimentRunner::factsKey(const std::string &benchmark) const
{
    std::ostringstream keyStream;
    keyStream << "meta:v5:" << benchmark;
    const std::string pluginTag =
        axbench::WorkloadRegistry::global().cacheTag(benchmark);
    if (!pluginTag.empty())
        keyStream << ":plugin=" << pluginTag;
    keyStream << ":s" << experimentScale()
              << ":d" << pipeline.options().compileDatasetCount << ":x"
              << pipeline.options().seed;
    return keyStream.str();
}

WorkloadRecord
ExperimentRunner::workloadFacts(const std::string &benchmark)
{
    const std::string key = factsKey(benchmark);
    if (const auto cached = cache.get(key))
        return parseWorkload(*cached);

    LoadedWorkload &entry = loaded(benchmark);
    WorkloadRecord record;
    record.domain = entry.workload.benchmark->domain();
    record.metricName = entry.workload.benchmark->metricLabel();
    record.npuTopology =
        npu::topologyName(entry.workload.benchmark->npuTopology());
    record.fullApproxLossMean = entry.workload.fullApproxLossMean;
    record.npuTrainMse = entry.workload.npuTrainMse;
    record.preciseCyclesPerInvocation = entry.workload.profile.preciseCycles;
    record.accelCyclesPerInvocation = entry.workload.profile.accelCycles;
    record.invocationsPerDataset =
        entry.workload.profile.invocationsPerDataset;

    cache.put(key, serializeWorkload(record));
    return record;
}

std::vector<double>
ExperimentRunner::elementErrorSample(const std::string &benchmark,
                                     std::size_t maxSamples)
{
    LoadedWorkload &entry = loaded(benchmark);
    const auto &bench = *entry.workload.benchmark;

    std::vector<double> errors;
    for (const auto &validationEntry : entry.validation.entries) {
        const auto approxFinal = bench.approxOutput(
            *validationEntry.dataset, *validationEntry.trace);
        const auto elementErrs = axbench::elementErrors(
            bench.metric(), validationEntry.preciseFinal, approxFinal);
        errors.insert(errors.end(), elementErrs.begin(),
                      elementErrs.end());
        if (errors.size() >= maxSamples)
            break;
    }
    if (errors.size() > maxSamples)
        errors.resize(maxSamples);
    return errors;
}

} // namespace mithra::core
