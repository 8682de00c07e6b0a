#include "fatomic/weave/method_info.hpp"

#include <utility>

#include "fatomic/common/error.hpp"

namespace fatomic::weave {

const std::array<ExceptionSpec, 1> kRuntimeExceptions{{
    {"fatomic::InjectedRuntimeError", [] { throw InjectedRuntimeError(); }},
}};

std::set<std::string> runtime_exception_names() {
  std::set<std::string> names;
  for (const ExceptionSpec& spec : kRuntimeExceptions)
    names.insert(spec.type_name);
  return names;
}

MethodInfo::MethodInfo(std::string class_name, std::string method_name,
                       std::vector<ExceptionSpec> declared, MethodKind kind)
    : class_name_(std::move(class_name)),
      method_name_(std::move(method_name)),
      qualified_name_(class_name_ + "::" + method_name_),
      declared_(std::move(declared)),
      kind_(kind) {
  MethodRegistry::instance().add(this);
}

MethodRegistry& MethodRegistry::instance() {
  static MethodRegistry reg;
  return reg;
}

void MethodRegistry::add(const MethodInfo* mi) {
  std::lock_guard<std::mutex> lock(mu_);
  methods_.push_back(mi);
  by_name_.emplace(mi->qualified_name(), mi);
}

std::vector<const MethodInfo*> MethodRegistry::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  return methods_;
}

const MethodInfo* MethodRegistry::find(
    const std::string& qualified_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(qualified_name);
  return it != by_name_.end() ? it->second : nullptr;
}

}  // namespace fatomic::weave
