// Library-wide exception type and precondition check helper.
#pragma once

#include <stdexcept>
#include <string>

namespace bvl {

/// Thrown on invalid configuration or violated preconditions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws bvl::Error with `msg` when `cond` is false. A literal message
/// becomes a std::string only on the throw path, so a passing check
/// never allocates — hot loops (the cap loop's node_draw) run them.
inline void require(bool cond, const char* msg) {
  if (!cond) throw Error(msg);
}

/// Overload for messages composed at the call site.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw Error(msg);
}

}  // namespace bvl
