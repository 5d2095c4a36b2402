// `polaris_cli mask`: the TVLA-free serving path (Algorithm 2). Loads a
// trained bundle, scores and masks a design, and emits masked structural
// Verilog for the downstream ASIC flow (written atomically: temp file +
// rename, so an interrupted run never leaves a truncated .v). `--verify`
// adds the optional line-10 leakage estimate (before/after TVLA) - useful
// for sign-off, but not needed for the masking decision itself.
#include <cstdio>
#include <optional>

#include "cli.hpp"
#include "engine/scheduler.hpp"
#include "netlist/verilog.hpp"
#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"

namespace polaris::cli {

int cmd_mask(std::span<const char* const> args) {
  const std::vector<FlagSpec> specs = {
      {"bundle", true, "trained .plb bundle (required)"},
      {"design", true, "suite name or Verilog file (required)"},
      {"out", true, "masked Verilog output path (required)"},
      {"scale", true, "suite design-size scale in (0,1] (default 1.0)"},
      {"mask-size", true, "gates to mask (default: the bundle's Msize)"},
      {"mode", true, "model | rules | model+rules (default model)"},
      {"verify", false, "run before/after TVLA on top (slow; sign-off only)"},
      {"json", false, "emit a JSON summary instead of text"},
      trace_flag_spec(),
      {"help", false, "show this help"},
  };
  const ParsedFlags flags(args, specs);
  if (flags.has("help")) {
    std::printf("usage: polaris_cli mask --bundle <model.plb> --design "
                "<name|file.v> --out <masked.v> [flags]\n\n%s",
                render_flag_help(specs).c_str());
    return 0;
  }
  const TraceGuard trace(flags.get("trace"), "mask");

  const auto polaris = core::Polaris::load_bundle(flags.require("bundle"));
  const auto design = circuits::load_design(flags.require("design"),
                                            flags.get_double("scale", 1.0));
  const std::string out_path = flags.require("out");
  const auto mode = mode_from_string(flags.get("mode", "model"));
  const std::size_t mask_size =
      flags.get_size("mask-size", polaris.config().mask_size);
  const bool verify = flags.has("verify");

  const auto lib = techlib::TechLibrary::default_library();
  // Masking itself is TVLA-free; the sign-off campaigns (before on the
  // original, after on the masked netlist) are independent, so they drain
  // together instead of running back to back.
  auto outcome =
      polaris.mask_design(design, lib, mask_size, mode, /*verify=*/false);
  netlist::write_verilog_file(outcome.masked, out_path);

  std::optional<tvla::LeakageReport> before;
  if (verify) {
    engine::Scheduler scheduler(polaris.config().threads);
    auto verification = core::verify_masking(scheduler, design, outcome.masked,
                                             lib, polaris.config());
    before = std::move(verification.before);
    outcome.verification = std::move(verification.after);
  }

  const tvla::LeakageReport* before_report = before ? &*before : nullptr;
  const tvla::LeakageReport* after_report =
      outcome.verification ? &*outcome.verification : nullptr;
  const auto render = flags.has("json") ? render_mask_json : render_mask_text;
  std::fputs(render(design.name, design.netlist.gate_count(),
                    outcome.selected.size(), outcome.masked.gate_count(),
                    outcome.seconds, out_path, before_report, after_report)
                 .c_str(),
             stdout);
  if (flags.has("json")) std::printf("\n");
  return 0;
}

}  // namespace polaris::cli
