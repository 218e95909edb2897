// layerprobe — the benchmark's traced compile pass.
//
// purecc runs every layer inside one run_pure_chain() call, so its
// process wall time says nothing about where compile time goes. This tool
// times each module's public entry points from outside, on the same
// translation units and options the timed pass hands to purecc:
//
//   preproc      strip_system_includes + MiniPreprocessor::preprocess
//   lexer        lex
//   parser       Parser::parse_translation_unit
//   purity       infer_purity, PurityChecker::check
//   memo         classify_memoizable (under --memoize)
//   polyhedral   extract_scop, analyze_dependences, compute_schedule +
//                generate_code or schedule_region, per SCoP candidate of
//                the chain's own `substituted` stage text
//   emit         print_c (lowered)
//   transform    run_pure_chain (whole chain) and build_chain_report
//
// Spans (name, start, end, parent) are kept in memory and written at exit
// as Chrome trace-event JSON (--trace-out). The aggregated counters and
// times go to stdout as one JSON object. transform.self_ms is the chain's
// wall time minus the layer spans measured here on the same unit: an
// outside estimate, and an upper bound, because the chain calls some
// layers (print_c, extract_scop during fusion trials) more than once.
//
//   layerprobe [--mode pluto|sica] [--tile N] [--inline-pure]
//              [--infer-pure] [--memoize] [--fp-reductions]
//              [--trace-out FILE] unit.c...
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "emit/c_printer.h"
#include "lexer/lexer.h"
#include "memo/memoizable.h"
#include "parser/parser.h"
#include "polyhedral/codegen.h"
#include "polyhedral/dependence.h"
#include "polyhedral/model.h"
#include "polyhedral/schedule.h"
#include "preproc/include_stripper.h"
#include "preproc/mini_cpp.h"
#include "purity/inference.h"
#include "purity/purity_checker.h"
#include "sema/symbols.h"
#include "support/json.h"
#include "support/rational.h"
#include "support/source_buffer.h"
#include "transform/chain_report.h"
#include "transform/loop_canon.h"
#include "transform/pure_chain.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string unit;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  // index into the span list, -1 for a root
};

class Tracer {
 public:
  /// Opens a span under the currently open one.
  void open(std::string name, const std::string& unit) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), unit, now_us(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Closes the innermost span; returns its duration in milliseconds.
  double close() {
    Span& span = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    span.end_us = now_us();
    return (span.end_us - span.start_us) / 1000.0;
  }

  [[nodiscard]] purec::json::Value chrome_trace() const {
    purec::json::Value events = purec::json::Value::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      purec::json::Value args = purec::json::Value::object();
      args.set("span_id", static_cast<long long>(i));
      args.set("parent",
               s.parent < 0 ? purec::json::Value(nullptr)
                            : purec::json::Value(s.parent));
      args.set("unit", s.unit);
      purec::json::Value e = purec::json::Value::object();
      e.set("name", s.name);
      e.set("cat", "compile");
      e.set("ph", "X");
      e.set("ts", s.start_us);
      e.set("dur", s.end_us - s.start_us);
      e.set("pid", 1);
      e.set("tid", 1);
      e.set("args", std::move(args));
      events.push(std::move(e));
    }
    return events;
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per-layer accumulators over every unit of one invocation.
struct Totals {
  std::map<std::string, double> ms;
  std::map<std::string, long long> counts;
};

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = std::move(ss).str();
  return true;
}

/// The polyhedral layer on the chain's `substituted` stage: the SCoP
/// candidates the purity checker marks there, each extracted, analyzed and
/// scheduled the way the chain's classic or region path would.
void probe_polyhedral(const std::string& substituted,
                      const purec::ChainOptions& options,
                      const std::string& unit, Tracer& tracer,
                      Totals& totals) {
  purec::DiagnosticEngine diags;
  const purec::SourceBuffer buffer =
      purec::SourceBuffer::from_string(substituted, "<substituted>");
  purec::TranslationUnit tu = purec::parse(buffer, diags);
  if (diags.has_errors()) return;
  purec::PurityOptions purity_options = options.purity;
  purity_options.listing5_violation_is_error = false;
  const purec::PurityResult purity =
      purec::check_purity(tu, diags, purity_options);

  purec::poly::CodegenOptions cg;
  cg.parallelize = options.parallelize;
  cg.tile = options.tile;
  cg.tile_size = options.tile_size;
  cg.simd = options.mode == purec::TransformMode::PlutoSica;

  for (const purec::ScopCandidate& candidate : purity.scop_loops) {
    ++totals.counts["polyhedral.candidates"];
    try {
      tracer.open("polyhedral.extract", unit);
      purec::poly::ExtractionResult extraction =
          purec::poly::extract_scop(*candidate.loop);
      totals.ms["polyhedral.extract"] += tracer.close();
      if (!extraction.ok()) continue;
      ++totals.counts["polyhedral.extracted"];
      const purec::poly::Scop& scop = *extraction.scop;

      tracer.open("polyhedral.dependence", unit);
      const std::vector<purec::poly::Dependence> deps =
          purec::poly::analyze_dependences(scop);
      totals.ms["polyhedral.dependence"] += tracer.close();
      totals.counts["polyhedral.dependences"] +=
          static_cast<long long>(deps.size());

      bool parallel = false;
      if (scop.region_shaped) {
        tracer.open("polyhedral.codegen", unit);
        purec::poly::RegionSchedule rs;
        const purec::StmtPtr out =
            purec::poly::schedule_region(scop, deps, cg, {}, &rs);
        totals.ms["polyhedral.codegen"] += tracer.close();
        parallel = out != nullptr && !rs.parallel_loops.empty();
      } else {
        tracer.open("polyhedral.schedule", unit);
        const purec::poly::Transform transform =
            purec::poly::compute_schedule(scop, deps);
        totals.ms["polyhedral.schedule"] += tracer.close();
        tracer.open("polyhedral.codegen", unit);
        const purec::StmtPtr out =
            purec::poly::generate_code(scop, transform, cg);
        totals.ms["polyhedral.codegen"] += tracer.close();
        parallel = out != nullptr && options.parallelize &&
                   transform.any_parallel();
      }
      if (parallel) ++totals.counts["polyhedral.parallel"];
    } catch (const purec::ArithmeticOverflow&) {
      // The chain treats this as "leave the nest serial"; so does the
      // probe. Close whatever span the throw left open.
      totals.ms["polyhedral.overflow"] += tracer.close();
    }
  }
}

/// One unit through every layer. Returns false when the chain rejects it.
bool probe_unit(const std::string& path, const std::string& source,
                const purec::ChainOptions& options, Tracer& tracer,
                Totals& totals) {
  tracer.open("unit", path);
  double layers_ms = 0.0;
  const auto timed = [&](const char* name, auto&& fn) {
    tracer.open(name, path);
    fn();
    const double ms = tracer.close();
    totals.ms[name] += ms;
    layers_ms += ms;
  };

  std::string preprocessed;
  purec::DiagnosticEngine diags;
  timed("preproc", [&] {
    const purec::StrippedSource stripped =
        purec::strip_system_includes(source);
    purec::MiniPreprocessor cpp(diags);
    for (const auto& [name, value] : options.defines) cpp.define(name, value);
    preprocessed = cpp.preprocess(stripped.text);
  });
  totals.counts["preproc.bytes"] += static_cast<long long>(source.size());

  const purec::SourceBuffer buffer =
      purec::SourceBuffer::from_string(preprocessed, "<chain>");
  std::vector<purec::Token> tokens;
  timed("lexer", [&] { tokens = purec::lex(buffer, diags); });
  totals.counts["lexer.tokens"] += static_cast<long long>(tokens.size());

  purec::TranslationUnit tu;
  timed("parser", [&] {
    purec::Parser parser(std::move(tokens), diags);
    tu = parser.parse_translation_unit();
  });
  totals.counts["parser.functions"] +=
      static_cast<long long>(tu.functions().size());
  (void)purec::canonicalize_while_loops(tu);

  const purec::SymbolTable symbols = purec::SymbolTable::build(tu, diags);
  purec::InferenceResult inference;
  timed("purity.infer", [&] {
    inference = purec::infer_purity(tu, symbols, options.purity);
  });
  totals.counts["purity.inferred_pure"] +=
      static_cast<long long>(inference.inferred_pure.size());

  purec::PurityOptions purity_options = options.purity;
  if (options.infer_purity) {
    purity_options.assume_pure = inference.inferred_pure;
    purity_options.assumed_global_reads = inference.inferred_global_reads();
  }
  purec::PurityResult purity;
  timed("purity.check", [&] {
    purec::PurityChecker checker(tu, symbols, diags, purity_options);
    purity = checker.check();
  });
  totals.counts["purity.scop_candidates"] +=
      static_cast<long long>(purity.scop_loops.size());

  if (options.memoize) {
    purec::MemoizableResult memo;
    timed("memo.classify", [&] {
      memo = purec::classify_memoizable(tu, symbols, purity.pure_functions,
                                        purity_options, /*cost_gate=*/true);
    });
    totals.counts["memo.thunks"] +=
        static_cast<long long>(memo.memoizable.size());
  }

  timed("emit.print", [&] {
    const std::string text =
        purec::print_c(tu, purec::PrintOptions{purec::PureHandling::Lower, 2});
    totals.counts["emit.print_bytes"] += static_cast<long long>(text.size());
  });

  tracer.open("transform.chain", path);
  purec::ChainArtifacts artifacts = purec::run_pure_chain(source, options);
  const double chain_ms = tracer.close();
  totals.ms["transform.chain"] += chain_ms;
  if (!artifacts.ok) {
    tracer.close();
    return false;
  }
  totals.counts["emit.bytes"] +=
      static_cast<long long>(artifacts.final_source.size());
  for (const purec::FusionDecision& d : artifacts.fusion_decisions) {
    ++totals.counts[d.fused ? "transform.fusions_taken"
                            : "transform.fusions_rejected"];
  }
  for (const purec::ScopReport& s : artifacts.scops) {
    if (s.fissioned) ++totals.counts["transform.fissioned"];
    totals.counts["transform.substituted_calls"] +=
        static_cast<long long>(s.substituted_calls);
  }

  const double before_poly = totals.ms["polyhedral.extract"] +
                             totals.ms["polyhedral.dependence"] +
                             totals.ms["polyhedral.schedule"] +
                             totals.ms["polyhedral.codegen"];
  probe_polyhedral(artifacts.substituted, options, path, tracer, totals);
  layers_ms += totals.ms["polyhedral.extract"] +
               totals.ms["polyhedral.dependence"] +
               totals.ms["polyhedral.schedule"] +
               totals.ms["polyhedral.codegen"] - before_poly;
  totals.ms["transform.self"] += chain_ms - layers_ms;

  tracer.open("transform.report", path);
  const purec::json::Value report =
      purec::build_chain_report(artifacts, options);
  totals.ms["transform.report"] += tracer.close();
  totals.counts["transform.report_bytes"] +=
      static_cast<long long>(report.dump().size());
  tracer.close();  // unit
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: layerprobe [--mode pluto|sica] [--tile N] "
               "[--inline-pure] [--infer-pure] [--memoize]\n"
               "                  [--fp-reductions] [--trace-out FILE] "
               "unit.c...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  purec::ChainOptions options;
  std::string trace_out;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mode" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "sica") {
        options.mode = purec::TransformMode::PlutoSica;
      } else if (v != "pluto") {
        return usage();
      }
    } else if (arg == "--tile" && i + 1 < argc) {
      options.tile_size = std::atoll(argv[++i]);
      if (options.tile_size <= 1) options.tile = false;
    } else if (arg == "--inline-pure") {
      options.inline_pure_expressions = true;
    } else if (arg == "--infer-pure") {
      options.infer_purity = true;
    } else if (arg == "--memoize") {
      options.memoize = true;
    } else if (arg == "--fp-reductions") {
      options.fp_reductions = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();

  Tracer tracer;
  Totals totals;
  long long rejected = 0;
  for (const std::string& path : inputs) {
    std::string source;
    if (!read_file(path, &source)) {
      std::fprintf(stderr, "layerprobe: cannot open %s\n", path.c_str());
      return 2;
    }
    if (!probe_unit(path, source, options, tracer, totals)) ++rejected;
  }

  purec::json::Value ms = purec::json::Value::object();
  for (const auto& [name, value] : totals.ms) ms.set(name, value);
  purec::json::Value counts = purec::json::Value::object();
  for (const auto& [name, value] : totals.counts) counts.set(name, value);
  purec::json::Value out = purec::json::Value::object();
  out.set("units", static_cast<long long>(inputs.size()));
  out.set("rejected", rejected);
  out.set("ms", std::move(ms));
  out.set("counts", std::move(counts));
  std::printf("%s\n", out.dump().c_str());

  if (!trace_out.empty()) {
    std::ofstream tf(trace_out);
    if (!tf) {
      std::fprintf(stderr, "layerprobe: cannot write %s\n",
                   trace_out.c_str());
      return 2;
    }
    tf << tracer.chrome_trace().dump() << "\n";
  }
  return 0;
}
