// Per-test scratch directories for the persistence suites. Each test gets
// its own path (test name + pid), so suites that write snapshots and logs
// stay hermetic when ctest runs test processes in parallel.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace harmonia::persist {

/// temp_directory_path()/"harmonia_<suite>.<test>_<pid>[_<tag>]". Not
/// created; the caller owns creating and removing it.
inline std::filesystem::path unique_test_dir(const std::string& tag = "") {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("harmonia_") + info->test_suite_name() + "." + info->name() +
                     "_" + std::to_string(::getpid());
  if (!tag.empty()) name += "_" + tag;
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized test names
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace harmonia::persist
