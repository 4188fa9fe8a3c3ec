// Shared result-file writer for benches and exporters.
//
// Writes a file with an error-checked flush, so a full disk or an unwritable
// path fails the bench instead of silently producing a truncated result
// file.

#ifndef SRC_METRICS_REPORT_H_
#define SRC_METRICS_REPORT_H_

#include <string>
#include <string_view>

namespace newtos {

// Writes `contents` to `path`, replacing any existing file. Returns false on
// any I/O failure — open, write, or the final flush.
bool WriteFileChecked(const std::string& path, std::string_view contents);

}  // namespace newtos

#endif  // SRC_METRICS_REPORT_H_
