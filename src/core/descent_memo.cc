#include "core/descent_memo.h"

#include <bit>
#include <utility>

namespace dcs {

size_t DescentRecord::ApproxBytes() const {
  return sizeof(DescentRecord) + members.capacity() * sizeof(VertexId) +
         weights.capacity() * sizeof(double) +
         read_set.capacity() * sizeof(VertexId) +
         sizeof(std::shared_ptr<const DescentRecord>);
}

bool DescentMemo::Serves(VertexId num_vertices, const DcsgaOptions& options) {
  if (options.shrink != ShrinkKind::kCoordinateDescent) return false;
  Binding binding;
  binding.num_vertices = num_vertices;
  binding.seacd_epsilon_bits =
      std::bit_cast<uint64_t>(options.seacd.descent.epsilon_scale);
  binding.seacd_max_iterations = options.seacd.descent.max_iterations;
  binding.seacd_max_rounds = options.seacd.max_rounds;
  binding.refinement_epsilon_bits =
      std::bit_cast<uint64_t>(options.refinement_descent.epsilon_scale);
  binding.refinement_max_iterations =
      options.refinement_descent.max_iterations;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!bound_) BindLocked(binding);
  return binding_ == binding;
}

void DescentMemo::BindLocked(const Binding& binding) {
  bound_ = true;
  binding_ = binding;
  // Value-initialized: every slot starts null.
  slots_ = std::make_unique<std::atomic<const DescentRecord*>[]>(
      binding.num_vertices);
  bytes_.fetch_add(binding.num_vertices * sizeof(slots_[0]),
                   std::memory_order_relaxed);
}

void DescentMemo::AdoptLocked(std::shared_ptr<const DescentRecord> record) {
  bytes_.fetch_add(record->ApproxBytes(), std::memory_order_relaxed);
  slots_[record->seed].store(record.get(), std::memory_order_release);
  records_.push_back(std::move(record));
}

const DescentRecord* DescentMemo::Insert(DescentRecord record) {
  auto shared = std::make_shared<const DescentRecord>(std::move(record));
  std::lock_guard<std::mutex> lock(mutex_);
  const DescentRecord* resident =
      slots_[shared->seed].load(std::memory_order_relaxed);
  if (resident != nullptr) return resident;
  AdoptLocked(shared);
  return shared.get();
}

std::shared_ptr<DescentMemo> DescentMemo::CarriedOver(
    std::span<const VertexId> changed_endpoints) const {
  auto carried = std::make_shared<DescentMemo>();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!bound_) return carried;
  std::lock_guard<std::mutex> carried_lock(carried->mutex_);
  carried->BindLocked(binding_);
  std::vector<char> changed(binding_.num_vertices, 0);
  for (const VertexId v : changed_endpoints) changed[v] = 1;
  for (const std::shared_ptr<const DescentRecord>& record : records_) {
    bool stale = false;
    for (const VertexId v : record->read_set) {
      if (changed[v]) {
        stale = true;
        break;
      }
    }
    if (!stale) carried->AdoptLocked(record);
  }
  return carried;
}

size_t DescentMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

}  // namespace dcs
