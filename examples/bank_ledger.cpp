// Domain scenario: a bank ledger whose transfer operation is failure
// non-atomic — a failed transfer debits one account without crediting the
// other.  The example shows the money disappearing in the buggy program and
// conserved in the corrected (masked) program, driven by the same injection
// engine the detection phase uses.
//
//   $ ./examples/bank_ledger
#include <iostream>
#include <map>
#include <string>

#include "fatomic/fatomic.hpp"

namespace {

class LedgerError : public std::runtime_error {
 public:
  LedgerError() : std::runtime_error("ledger error") {}
  explicit LedgerError(const std::string& w) : std::runtime_error(w) {}
};

class Ledger {
 public:
  Ledger() { FAT_CTOR_ENTRY(); }

  void open_account(const std::string& name, int cents) {
    FAT_INVOKE(open_account, [&] {
      if (balances_.count(name)) throw LedgerError("account exists");
      balances_[name] = cents;
    });
  }

  int balance(const std::string& name) {
    return FAT_INVOKE(balance, [&] {
      auto it = balances_.find(name);
      if (it == balances_.end()) throw LedgerError("no such account");
      return it->second;
    });
  }

  int total() {
    return FAT_INVOKE(total, [&] {
      int sum = 0;
      for (const auto& [name, cents] : balances_) sum += cents;
      return sum;
    });
  }

  /// BUG: debits, then performs a fallible audit, then credits.  A failure
  /// between the two legs loses money.
  void transfer(const std::string& from, const std::string& to, int cents) {
    FAT_INVOKE(transfer, [&] {
      if (balance(from) < cents) throw LedgerError("insufficient funds");
      balances_[from] -= cents;
      audit();  // fallible step between the two legs
      balances_[to] += cents;
    });
  }

  int audit() {
    return FAT_INVOKE(audit, [&] { return static_cast<int>(balances_.size()); });
  }

 private:
  FAT_REFLECT_FRIEND(Ledger);
  FAT_CTOR_INFO(Ledger);
  FAT_METHOD_INFO(Ledger, open_account, FAT_THROWS(LedgerError));
  FAT_METHOD_INFO(Ledger, balance, FAT_THROWS(LedgerError));
  FAT_METHOD_INFO(Ledger, total);
  FAT_METHOD_INFO(Ledger, transfer, FAT_THROWS(LedgerError));
  FAT_METHOD_INFO(Ledger, audit, FAT_THROWS(LedgerError));

  std::map<std::string, int> balances_;
};

void workload() {
  Ledger ledger;
  ledger.open_account("alice", 10000);
  ledger.open_account("bob", 5000);
  ledger.transfer("alice", "bob", 2500);
  ledger.transfer("bob", "alice", 1000);
  ledger.total();
  try {
    ledger.transfer("bob", "alice", 999999);
  } catch (const LedgerError&) {
  }
}

/// Fires an injected exception inside transfer() (at the audit between the
/// two legs) and reports whether the ledger conserved money.
bool demonstrate(bool masked, fatomic::weave::Runtime::WrapPredicate wrap) {
  auto& rt = fatomic::weave::Runtime::instance();
  // The injector wraps a call in an atomicity wrapper only when the
  // predicate selects it.
  fatomic::weave::ScopedMode mode(fatomic::weave::Mode::Inject);
  if (masked) rt.set_wrap_predicate(wrap);
  rt.begin_run(0);
  Ledger ledger;
  ledger.open_account("alice", 10000);
  ledger.open_account("bob", 5000);
  const int before = ledger.total();
  // transfer consumes: its own entry (2 points: declared + runtime), then
  // balance (2), then audit (2).  Threshold 5 = audit's declared-exception
  // point — right between debit and credit.
  rt.begin_run(5);
  try {
    ledger.transfer("alice", "bob", 2500);
  } catch (const std::exception& e) {
    std::cout << "  transfer failed mid-way (" << e.what() << ")\n";
  }
  rt.begin_run(0);
  const int after = ledger.total();
  std::cout << "  total before: " << before << ", after: " << after
            << (after == before ? "  -- money conserved\n"
                                : "  -- MONEY LOST\n");
  rt.set_wrap_predicate(nullptr);
  return after == before;
}

}  // namespace

FAT_REFLECT(Ledger, FAT_FIELD(Ledger, balances_));

int main() {
  std::cout << "detecting failure non-atomic ledger methods...\n";
  fatomic::detect::Experiment exp(workload);
  auto cls = fatomic::detect::classify(exp.run());
  for (const std::string& name : cls.pure_names())
    std::cout << "  pure failure non-atomic: " << name << '\n';

  std::cout << "\nbuggy program under an injected mid-transfer failure:\n";
  const bool buggy_conserves = demonstrate(false, nullptr);

  std::cout << "\ncorrected program (atomicity wrapper around transfer):\n";
  const bool corrected_conserves =
      demonstrate(true, fatomic::mask::wrap_pure(cls));
  return !buggy_conserves && corrected_conserves ? 0 : 1;
}
