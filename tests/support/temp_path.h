// Hermetic scratch paths for tests.
//
// gtest_discover_tests runs every case as its own process, so under
// `ctest -j` cases of one suite run side by side.  A fixed name under
// testing::TempDir() is then shared by all of them, and one case can
// overwrite or remove another's file mid-test.  UniqueTempPath names
// the file after the running test and the process id instead, so no
// two concurrent cases (nor two runs of the same case) ever share one.

#ifndef FXDIST_TESTS_SUPPORT_TEMP_PATH_H_
#define FXDIST_TESTS_SUPPORT_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace fxdist {

/// `<TempDir>/<suite>.<test>.<pid>.<name>`; '/' in parameterized test
/// names becomes '_'.  `name` tells apart several files of one test.
inline std::string UniqueTempPath(const std::string& name) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string test =
      info == nullptr
          ? std::string("no_test")
          : std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : test) {
    if (c == '/') c = '_';
  }
  return testing::TempDir() + "/" + test + "." +
         std::to_string(static_cast<long>(::getpid())) + "." + name;
}

}  // namespace fxdist

#endif  // FXDIST_TESTS_SUPPORT_TEMP_PATH_H_
