// The render-once sample store of the procedural datasets
// (data/dataset.hpp): a cached get is bitwise the first render, concurrent
// gets of one index agree, and copies and moves serve the same samples.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"

namespace gs::data {
namespace {

bool bitwise_equal(const Sample& a, const Sample& b) {
  return a.label == b.label && a.image.same_shape(b.image) &&
         std::memcmp(a.image.data(), b.image.data(),
                     a.image.numel() * sizeof(float)) == 0;
}

TEST(SampleCache, RendersEachIndexOnce) {
  const SampleCache cache;
  int renders = 0;
  const auto render = [&] {
    ++renders;
    return Sample{Tensor(Shape{1, 2, 2}, 0.5f), 3};
  };
  const Sample first = cache.get(9, render);
  const Sample again = cache.get(9, render);
  EXPECT_EQ(renders, 1);
  EXPECT_TRUE(bitwise_equal(first, again));
  cache.get(10, render);
  EXPECT_EQ(renders, 2);
}

template <class Ds>
void expect_cached_equals_render(const Ds& ds, const Ds& fresh) {
  for (const std::size_t i : {0u, 7u, 19u}) {
    const Sample first = ds.get(i);  // renders and stores
    EXPECT_TRUE(bitwise_equal(ds.get(i), first)) << "index " << i;
    EXPECT_TRUE(bitwise_equal(fresh.get(i), first)) << "index " << i;
  }
}

TEST(SampleCache, CachedGetIsBitwiseTheFirstRender) {
  expect_cached_equals_render(SyntheticMnist(42, 20), SyntheticMnist(42, 20));
  expect_cached_equals_render(SyntheticCifar(42, 20), SyntheticCifar(42, 20));
}

template <class Ds>
void expect_concurrent_gets_agree(const Ds& ds, const Ds& reference) {
  ThreadPool pool(4);
  std::vector<Sample> same(32);
  pool.parallel_for(same.size(), [&](std::size_t t) { same[t] = ds.get(5); });
  const Sample want = reference.get(5);
  for (const Sample& s : same) EXPECT_TRUE(bitwise_equal(s, want));
  std::vector<Sample> mixed(64);
  pool.parallel_for(mixed.size(),
                    [&](std::size_t t) { mixed[t] = ds.get(t % 16); });
  for (std::size_t t = 0; t < mixed.size(); ++t) {
    EXPECT_TRUE(bitwise_equal(mixed[t], reference.get(t % 16))) << t;
  }
}

TEST(SampleCache, ConcurrentGetsFromPoolThreadsAgree) {
  expect_concurrent_gets_agree(SyntheticMnist(3, 16), SyntheticMnist(3, 16));
  expect_concurrent_gets_agree(SyntheticCifar(3, 16), SyntheticCifar(3, 16));
}

TEST(SampleCache, CopiesAndMovesServeTheSameSamples) {
  const SyntheticMnist reference(11, 30);
  SyntheticMnist original(11, 30);
  original.get(3);

  SyntheticMnist copy = original;
  EXPECT_TRUE(bitwise_equal(copy.get(3), reference.get(3)));
  EXPECT_TRUE(bitwise_equal(copy.get(4), reference.get(4)));
  EXPECT_TRUE(bitwise_equal(original.get(4), reference.get(4)));

  SyntheticMnist moved = std::move(copy);
  EXPECT_TRUE(bitwise_equal(moved.get(5), reference.get(5)));
  EXPECT_TRUE(bitwise_equal(copy.get(6), reference.get(6)));  // NOLINT

  SyntheticMnist assigned(99, 30);
  assigned.get(3);  // another dataset's sample 3, replaced below
  assigned = original;
  EXPECT_TRUE(bitwise_equal(assigned.get(3), reference.get(3)));
  assigned = std::move(moved);
  EXPECT_TRUE(bitwise_equal(assigned.get(7), reference.get(7)));

  SyntheticCifar cifar(5, 12);
  const SyntheticCifar cifar_reference(5, 12);
  cifar.get(2);
  const SyntheticCifar cifar_moved = std::move(cifar);
  EXPECT_TRUE(bitwise_equal(cifar_moved.get(2), cifar_reference.get(2)));
  EXPECT_TRUE(bitwise_equal(cifar_moved.get(8), cifar_reference.get(8)));
}

}  // namespace
}  // namespace gs::data
