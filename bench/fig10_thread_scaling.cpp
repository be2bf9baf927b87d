/// @file
/// Fig. 10 reproduction: thread-scaling of the temporal random walk
/// and word2vec kernels on the stackoverflow stand-in, plus the
/// batched ("GPU execution model") point for each kernel.
///
/// Paper finding: both kernels scale reasonably despite irregularity
/// thanks to dynamically scheduled (work-stealing) threads; the GPU
/// point lands near 32 CPU threads for the walk (transfer + divergence
/// overheads) but beats the CPU clearly for batched word2vec.
///
/// Dual-source: --source=measured (or both) annotates each
/// thread-count row with the kernels' measured IPC from hardware
/// counters — the paper's evidence that flattening speedup curves are
/// a memory-boundedness symptom (IPC drops as threads contend), not a
/// scheduling artifact. Cells show n/a where the host exposes no PMU.
#include "tgl/tgl.hpp"

#include "source_mode.hpp"

#include <cstdio>
#include <vector>

namespace {

/// Per-row IPC cell from a phase-aggregate delta.
void
ipc_cell(char* buffer, std::size_t size,
         const tgl::obs::PerfSample& sample)
{
    if (sample.has(tgl::obs::PerfEvent::kInstructions) &&
        sample.has(tgl::obs::PerfEvent::kCycles)) {
        std::snprintf(buffer, size, "%.2f", sample.ipc());
    } else {
        std::snprintf(buffer, size, "n/a");
    }
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace tgl;
    util::CliParser cli("fig10_thread_scaling",
                        "Fig. 10: kernel thread scaling");
    cli.add_flag("dataset", "stackoverflow", "catalog dataset");
    cli.add_flag("scale", "0.003", "stand-in scale");
    cli.add_flag("seed", "1", "random seed");
    cli.add_flag("source", "model",
                 "timing source: model (wall clock only) | measured | "
                 "both (adds per-row IPC from hardware counters)");
    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
        const bench::Source source =
            bench::parse_source(cli.get_string("source"));
        const bool measured = bench::wants_measured(source);
        if (measured) {
            bench::enable_measured_counters();
        }
        const auto seed =
            static_cast<std::uint64_t>(cli.get_int("seed"));
        const gen::Dataset dataset = gen::make_dataset(
            cli.get_string("dataset"), cli.get_double("scale"), seed);
        const auto graph = graph::GraphBuilder::build(
            dataset.edges, {.symmetrize = true});

        walk::WalkConfig walk_config;
        walk_config.walks_per_node = 10;
        walk_config.max_length = 6;
        walk_config.seed = seed;
        const walk::Corpus corpus =
            walk::generate_walks(graph, walk_config);

        const unsigned hardware = util::host_info().hardware_threads;
        // Sweep to at least 8 team sizes so the bench exercises the
        // dispatch machinery even on small hosts; past `hardware` the
        // rows measure oversubscription, not scaling.
        const unsigned sweep_max = std::max(hardware, 8u);
        std::vector<unsigned> thread_counts;
        for (unsigned t = 1; t <= sweep_max; t *= 2) {
            thread_counts.push_back(t);
        }
        if (thread_counts.back() != sweep_max) {
            thread_counts.push_back(sweep_max);
        }
        if (hardware == 1) {
            std::printf("# WARNING: single-core host — rows beyond 1 "
                        "thread measure oversubscription overhead, not "
                        "scaling; run on a multicore machine for the "
                        "paper's shape\n");
        }

        std::printf("# Fig. 10 reproduction — %s stand-in (%s nodes, %s "
                    "edges), %u hardware threads\n",
                    dataset.name.c_str(),
                    util::format_count(graph.num_nodes()).c_str(),
                    util::format_count(graph.num_edges()).c_str(),
                    hardware);
        if (measured) {
            std::printf("%10s %12s %12s %8s %12s %12s %8s\n", "threads",
                        "rwalk(s)", "rw-speedup", "rw-ipc", "w2v(s)",
                        "w2v-speedup", "w2v-ipc");
        } else {
            std::printf("%10s %12s %12s %12s %12s\n", "threads",
                        "rwalk(s)", "rw-speedup", "w2v(s)",
                        "w2v-speedup");
        }

        double rwalk_base = 0.0;
        double w2v_base = 0.0;
        for (const unsigned threads : thread_counts) {
            walk::WalkConfig wc = walk_config;
            wc.num_threads = threads;
            obs::PerfSample walk_before = obs::perf_phase_total("walk");
            util::Timer timer;
            walk::generate_walks(graph, wc);
            const double rwalk_seconds = timer.seconds();
            const obs::PerfSample walk_delta =
                obs::perf_phase_total("walk") - walk_before;

            embed::SgnsConfig sgns;
            sgns.dim = 8;
            sgns.epochs = 1;
            sgns.seed = seed;
            sgns.num_threads = threads;
            embed::TrainStats stats;
            const obs::PerfSample sgns_before =
                obs::perf_phase_total("sgns");
            embed::train_sgns(corpus, graph.num_nodes(), sgns, &stats);
            const obs::PerfSample sgns_delta =
                obs::perf_phase_total("sgns") - sgns_before;

            if (rwalk_base == 0.0) {
                rwalk_base = rwalk_seconds;
                w2v_base = stats.seconds;
            }
            if (measured) {
                char rw_ipc[16], w2v_ipc[16];
                ipc_cell(rw_ipc, sizeof(rw_ipc), walk_delta);
                ipc_cell(w2v_ipc, sizeof(w2v_ipc), sgns_delta);
                std::printf(
                    "%10u %12.3f %11.2fx %8s %12.3f %11.2fx %8s\n",
                    threads, rwalk_seconds, rwalk_base / rwalk_seconds,
                    rw_ipc, stats.seconds, w2v_base / stats.seconds,
                    w2v_ipc);
            } else {
                std::printf("%10u %12.3f %11.2fx %12.3f %11.2fx\n",
                            threads, rwalk_seconds,
                            rwalk_base / rwalk_seconds, stats.seconds,
                            w2v_base / stats.seconds);
            }
        }

        // The batched execution model (the paper's GPU point).
        {
            embed::SgnsConfig config;
            config.dim = 8;
            config.epochs = 1;
            config.seed = seed;
            config.batch_sentences = embed::kPaperBatchSentences;
            embed::TrainStats stats;
            const obs::PerfSample sgns_before =
                obs::perf_phase_total("sgns");
            embed::train_sgns(corpus, graph.num_nodes(), config, &stats);
            const obs::PerfSample sgns_delta =
                obs::perf_phase_total("sgns") - sgns_before;
            if (measured) {
                char w2v_ipc[16];
                ipc_cell(w2v_ipc, sizeof(w2v_ipc), sgns_delta);
                std::printf("%10s %12s %12s %8s %12.3f %11.2fx %8s\n",
                            "batched", "-", "-", "-", stats.seconds,
                            w2v_base / stats.seconds, w2v_ipc);
            } else {
                std::printf("%10s %12s %12s %12.3f %11.2fx\n", "batched",
                            "-", "-", stats.seconds,
                            w2v_base / stats.seconds);
            }
        }
        std::printf("\n# paper shape check: near-linear scaling at low "
                    "thread counts, flattening at high counts; the "
                    "batched word2vec point competitive with the best "
                    "threaded run.\n");
    } catch (const util::Error& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
