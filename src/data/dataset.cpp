#include "data/dataset.hpp"

#include <unordered_map>

#include "common/sync.hpp"

namespace gs::data {

struct SampleCache::Store {
  SharedMutex mutex;
  std::unordered_map<std::size_t, Sample> samples GS_GUARDED_BY(mutex);
};

SampleCache::SampleCache() : store_(std::make_shared<Store>()) {}

Sample SampleCache::get(std::size_t index,
                        const std::function<Sample()>& render) const {
  Store& store = *store_;
  {
    SharedReaderLock lock(store.mutex);
    const auto it = store.samples.find(index);
    if (it != store.samples.end()) return it->second;
  }
  // Rendered outside the lock: a sample costs far more than a lookup.
  Sample sample = render();
  SharedWriterLock lock(store.mutex);
  return store.samples.try_emplace(index, std::move(sample)).first->second;
}

}  // namespace gs::data
