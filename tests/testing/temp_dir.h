// A per-test scratch directory. gtest_discover_tests runs every test as its
// own process and `ctest -j` runs those in parallel, so a fixed shared path
// would let one test's cleanup delete another's files mid-run.
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>

namespace dptd::testing {

/// A fresh directory under the system temp path, created with mkdtemp and
/// removed with its contents on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix) {
    std::string name =
        (std::filesystem::temp_directory_path() / (prefix + "_XXXXXX"))
            .string();
    if (mkdtemp(name.data()) == nullptr) {
      throw std::runtime_error("TempDir: mkdtemp failed for " + name);
    }
    path_ = name;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// The path of `name` inside the directory.
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace dptd::testing
