// Named design suite mirroring the paper's evaluation setup (Sec. V-A):
// six small training designs (substituting ISCAS-85; see DESIGN.md) and the
// eleven evaluation designs of Tables II-IV (EPFL / MIT-CEP stand-ins).
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace polaris::circuits {

/// Role of a primary input in side-channel experiments. The TVLA layer maps
/// kData -> sensitive (fixed-vs-random), kKey -> fixed-common, and
/// kControl -> random-common.
enum class InputRole : std::uint8_t { kData, kKey, kControl };

struct Design {
  std::string name;
  netlist::Netlist netlist;
  std::vector<InputRole> roles;  // one per primary input
};

/// The 11 evaluation designs of Table II, in table order:
/// des3, arbiter, sin, md5, voter, square, sqrt, div, memctrl, multiplier,
/// log2. `scale` < 1.0 shrinks parameterized widths for quick test runs.
[[nodiscard]] std::vector<Design> evaluation_suite(double scale = 1.0);

/// Six small training designs (Sec. V-A trains on six ISCAS-85 circuits).
[[nodiscard]] std::vector<Design> training_suite();

/// Build one design by name (any name from either suite). Throws
/// std::invalid_argument for unknown names.
[[nodiscard]] Design get_design(const std::string& name, double scale = 1.0);

/// A design request resolved to its source, before any netlist is built:
/// a suite name with its scale, or a structural-Verilog path (anything
/// ending in ".v") with the file's bytes. build_design is a pure function
/// of the source, so two equal sources always build the same design.
struct DesignSource {
  std::string name;        // suite name or .v path
  double scale = 1.0;      // suite designs only; in (0, 1]
  bool from_file = false;  // `name` is a .v path and `verilog` its bytes
  std::string verilog;
};

/// Checks `scale` and, for a .v path, reads the file - the only read of it.
/// Throws std::invalid_argument for a scale outside (0, 1] (NaN included)
/// and std::runtime_error when the file cannot be read.
[[nodiscard]] DesignSource resolve_design(const std::string& name_or_path,
                                          double scale = 1.0);

/// Builds the design a resolved source names; never touches the
/// filesystem. A .v design parses `source.verilog` and gives every input
/// the sensitive role. Throws std::invalid_argument for an unknown suite
/// name and std::runtime_error for malformed Verilog.
[[nodiscard]] Design build_design(const DesignSource& source);

/// resolve_design + build_design: the lookup the CLI and the serve daemon
/// share, so a served request resolves to exactly the netlist an offline
/// invocation would.
[[nodiscard]] Design load_design(const std::string& name_or_path,
                                 double scale = 1.0);

/// All evaluation-suite names, in Table II order.
[[nodiscard]] std::vector<std::string> evaluation_names();

}  // namespace polaris::circuits
