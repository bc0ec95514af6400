// Per-process scratch directory for tests that write files.
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "common/check.h"

namespace drtp::test {

/// A directory of this process's own under the system temp dir, made by
/// mkdtemp on first use and removed at exit, so two copies of one test
/// binary running at once never touch each other's files.
inline const std::filesystem::path& ProcessScratchDir() {
  struct Dir {
    Dir() {
      std::string name =
          (std::filesystem::temp_directory_path() / "drtp_test.XXXXXX")
              .string();
      DRTP_CHECK_MSG(mkdtemp(name.data()) != nullptr,
                     "mkdtemp failed for " << name);
      path = name;
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    std::filesystem::path path;
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace drtp::test
