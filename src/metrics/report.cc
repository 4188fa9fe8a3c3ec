#include "src/metrics/report.h"

#include <fstream>

namespace newtos {

bool WriteFileChecked(const std::string& path, std::string_view contents) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return false;
  }
  f.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  f.flush();
  return static_cast<bool>(f);
}

}  // namespace newtos
