#include "common/logging.h"

#include <cstdlib>
#include <iostream>

namespace easeml {
namespace internal {

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* condition) {
  stream_ << "[FATAL " << file << ":" << line << "] Check failed: "
          << condition << " ";
}

FatalLogMessage::~FatalLogMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  std::abort();
}

}  // namespace internal
}  // namespace easeml
