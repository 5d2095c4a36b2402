// Whole-file I/O. Writes are atomic: the masked-netlist outputs
// (`polaris_cli mask`, `polaris_cli client mask`, the server's own
// artifacts) must never leave a truncated file behind, because a downstream
// ASIC flow picking up a half-written .v is worse than no file at all.
#pragma once

#include <string>
#include <string_view>

namespace polaris::util {

/// Writes `contents` to `path` atomically AND durably: a uniquely-named
/// temp file in the SAME directory (rename(2) is only atomic within a
/// filesystem), flushed, fsync'd and closed, then renamed over the target,
/// then the parent directory is fsync'd so the rename itself survives a
/// crash. On any failure before the rename the temp file is removed and
/// std::runtime_error is thrown; the target is either untouched or fully
/// replaced, never truncated.
void write_file_atomic(const std::string& path, std::string_view contents);

/// Returns the whole contents of `path`, byte for byte. Throws
/// std::runtime_error when the file cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace polaris::util
