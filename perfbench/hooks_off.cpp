// Tracing off: the end-to-end measurement binary carries no instrumentation.
#include "hooks.h"

namespace perfbench {

bool traced() { return false; }
void reset_counts() {}
HookCounts counts() { return {}; }
void start_sampling() {}
void stop_sampling() {}
std::map<std::string, std::uint64_t> take_samples() { return {}; }

}  // namespace perfbench
