#include "model/task.h"

#include <utility>

namespace hedra::model {

namespace {

void check_timing(Time period, Time deadline) {
  HEDRA_REQUIRE(deadline >= 1, "task deadline must be positive");
  HEDRA_REQUIRE(period >= deadline,
                "constrained-deadline model requires D <= T");
}

}  // namespace

DagTask::DagTask(Dag dag, Time period, Time deadline, std::string name)
    : dag_(std::make_shared<const Dag>(std::move(dag))),
      period_(period),
      deadline_(deadline),
      name_(std::move(name)) {
  check_timing(period_, deadline_);
}

DagTask::DagTask(std::shared_ptr<const graph::FlatDagBatch> batch,
                 std::size_t index, Time period, Time deadline,
                 std::string name)
    : batch_(std::move(batch)),
      batch_index_(index),
      period_(period),
      deadline_(deadline),
      name_(std::move(name)) {
  HEDRA_REQUIRE(batch_ != nullptr, "arena-backed task needs a batch");
  HEDRA_REQUIRE(batch_index_ < batch_->size(),
                "arena record index out of range");
  check_timing(period_, deadline_);
}

DagTask DagTask::implicit(Dag dag, Time period, std::string name) {
  return DagTask(std::move(dag), period, period, std::move(name));
}

const Dag& DagTask::dag() const {
  if (!dag_) {
    dag_ = std::make_shared<const Dag>(batch_->materialize(batch_index_));
  }
  return *dag_;
}

graph::FlatView DagTask::flat_view() const {
  HEDRA_REQUIRE(batch_ != nullptr,
                "flat_view() requires an arena-backed task");
  return batch_->view(batch_index_);
}

}  // namespace hedra::model
