#include "obs/run_record.hpp"

#include <utility>

#include "core/contracts.hpp"

namespace tc3i::obs {

void RunRecordStore::add(RunRecord record) {
  if (record.scenario.empty()) record.scenario = current_context().scenario;
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

void RunRecordStore::merge_from(const RunRecordStore& other) {
  TC3I_EXPECTS(&other != this);
  std::vector<RunRecord> theirs = other.records();
  std::lock_guard<std::mutex> lock(mu_);
  for (RunRecord& r : theirs) records_.push_back(std::move(r));
}

std::vector<RunRecord> RunRecordStore::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::size_t RunRecordStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

}  // namespace tc3i::obs
