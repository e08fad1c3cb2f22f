// Compile-fail fixture for the discarded_status_is_error ctest: each of
// the ten statements in Discards() drops a Status or Result<T>, and the
// build must reject every one of them ([[nodiscard]] on both classes
// plus -Werror=unused-result in the project's warning set). The explicit
// (void) discard at the end is the sanctioned way to drop a value and
// must stay silent. Never linked into anything.
#include <functional>

#include "common/status.h"

namespace sgcl::discarded_status_fixture {

Status Free();
Result<int> Parse();

class Base {
 public:
  virtual ~Base() = default;
  Status Method();
  virtual Status Virtual();
  static Status Static();
};

template <typename T>
T Make();

#define SGCL_FIXTURE_PASS(expr) expr

void Discards(Base* ptr, Base& ref, const std::function<Status()>& fn) {
  Free();                                   // 1: free function
  Parse();                                  // 2: Result<T>
  ptr->Method();                            // 3: method through a pointer
  ref.Method();                             // 4: method through a reference
  ref.Virtual();                            // 5: virtual method
  Base::Static();                           // 6: static method
  fn();                                     // 7: std::function
  SGCL_FIXTURE_PASS(Free());                // 8: macro argument
  Make<Status>();                           // 9: template instantiation
  [] { return Status::OK(); }();            // 10: immediately invoked lambda
  (void)Free();                             // explicit discard: no diagnostic
}

}  // namespace sgcl::discarded_status_fixture
