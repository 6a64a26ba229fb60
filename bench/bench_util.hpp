// Shared formatting helpers for the table/figure benches. Every bench
// prints a header naming the paper artifact it regenerates, the measured
// rows, and (where the paper gives numbers) the expected values for
// comparison.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace sage::benchutil {

inline void title(const std::string& name, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", name.c_str(), description.c_str());
  std::printf("================================================================\n");
}

inline void rule() {
  std::printf("----------------------------------------------------------------\n");
}

/// Simple fixed-width two-column row.
inline void row(const std::string& left, const std::string& right,
                int left_width = 52) {
  std::printf("%-*s %s\n", left_width, left.c_str(), right.c_str());
}

inline std::string percent(double fraction) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.0f%%", fraction * 100.0);
  return buf;
}

}  // namespace sage::benchutil
