#include "core/model_config.hpp"

#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/lowrank.hpp"
#include "nn/pool2d.hpp"

namespace gs::core {

namespace {

/// key=value attributes of one layer line.
class Attributes {
 public:
  Attributes(const std::vector<std::string>& tokens, std::size_t line)
      : line_(line) {
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::string& tok = tokens[i];
      const std::size_t eq = tok.find('=');
      GS_CHECK_MSG(eq != std::string::npos && eq > 0 && eq + 1 < tok.size(),
                   "line " << line_ << ": malformed attribute '" << tok
                           << "' (expected key=value)");
      const std::string key = tok.substr(0, eq);
      GS_CHECK_MSG(values_.emplace(key, tok.substr(eq + 1)).second,
                   "line " << line_ << ": duplicate attribute '" << key
                           << "'");
    }
  }

  std::string get_string(const std::string& key, const std::string& fallback) {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    used_.insert(key);
    return it->second;
  }

  std::string require_string(const std::string& key) {
    const auto it = values_.find(key);
    GS_CHECK_MSG(it != values_.end(),
                 "line " << line_ << ": missing attribute '" << key << "'");
    used_.insert(key);
    return it->second;
  }

  std::size_t get_size(const std::string& key, std::size_t fallback) {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    used_.insert(key);
    return parse_size(it->second, key);
  }

  std::size_t require_size(const std::string& key) {
    return parse_size(require_string(key), key);
  }

  double get_double(const std::string& key, double fallback) {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    used_.insert(key);
    try {
      return std::stod(it->second);
    } catch (...) {
      GS_FAIL("line " << line_ << ": attribute '" << key
                      << "' is not a number: " << it->second);
    }
  }

  /// Throws if any provided attribute was never consumed (catches typos).
  void check_all_used() const {
    for (const auto& [key, value] : values_) {
      GS_CHECK_MSG(used_.count(key) > 0,
                   "line " << line_ << ": unknown attribute '" << key << "'");
    }
  }

 private:
  std::size_t parse_size(const std::string& raw, const std::string& key) {
    try {
      const long long v = std::stoll(raw);
      GS_CHECK_MSG(v > 0, "line " << line_ << ": attribute '" << key
                                  << "' must be positive");
      return static_cast<std::size_t>(v);
    } catch (const Error&) {
      throw;
    } catch (...) {
      GS_FAIL("line " << line_ << ": attribute '" << key
                      << "' is not an integer: " << raw);
    }
  }

  std::size_t line_;
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream iss(line);
  std::string tok;
  while (iss >> tok) tokens.push_back(tok);
  return tokens;
}

}  // namespace

ParsedModel parse_model(std::istream& in, Rng& rng) {
  ParsedModel model;
  Shape shape;       // running C, H, W (or {features} after flatten)
  bool flat = false;
  std::size_t line_no = 0;
  std::size_t auto_name = 0;
  std::string line;
  // One run seed shared by every dropout layer (drawn lazily so dropout-free
  // configs consume nothing); each layer derives its own (seed, name) stream.
  std::uint64_t dropout_seed = 0;
  bool have_dropout_seed = false;

  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& kind = tokens[0];

    if (kind == "input") {
      // `input C H W` uses positional values, not key=value attributes.
      GS_CHECK_MSG(shape.empty(), "line " << line_no << ": duplicate input");
      GS_CHECK_MSG(tokens.size() == 4,
                   "line " << line_no << ": input needs C H W");
      shape = {static_cast<std::size_t>(std::stoll(tokens[1])),
               static_cast<std::size_t>(std::stoll(tokens[2])),
               static_cast<std::size_t>(std::stoll(tokens[3]))};
      GS_CHECK_MSG(shape[0] > 0 && shape[1] > 0 && shape[2] > 0,
                   "line " << line_no << ": input dims must be positive");
      model.input_shape = shape;
      continue;
    }
    GS_CHECK_MSG(!shape.empty(),
                 "line " << line_no << ": layer before `input C H W`");
    Attributes attrs(tokens, line_no);

    const std::string name =
        attrs.get_string("name", kind + std::to_string(++auto_name));

    if (kind == "conv" || kind == "lowrank_conv") {
      GS_CHECK_MSG(!flat, "line " << line_no << ": conv after flatten");
      nn::Conv2dSpec spec;
      spec.in_channels = shape[0];
      spec.out_channels = attrs.require_size("out");
      spec.kernel = attrs.require_size("kernel");
      spec.stride = attrs.get_size("stride", 1);
      spec.pad = attrs.get_size("pad", 0);
      nn::Layer* added = nullptr;
      if (kind == "conv") {
        attrs.check_all_used();
        added = model.network.add(
            std::make_unique<nn::Conv2dLayer>(name, spec, rng));
      } else {
        const std::size_t rank =
            attrs.get_size("rank", spec.out_channels);  // full rank default
        attrs.check_all_used();
        added = model.network.add(
            std::make_unique<nn::LowRankConv2d>(name, spec, rank, rng));
      }
      shape = added->output_shape(shape);
    } else if (kind == "pool") {
      GS_CHECK_MSG(!flat, "line " << line_no << ": pool after flatten");
      const std::string mode = attrs.get_string("mode", "max");
      GS_CHECK_MSG(mode == "max" || mode == "avg",
                   "line " << line_no << ": pool mode must be max|avg");
      const std::size_t kernel = attrs.require_size("kernel");
      const std::size_t stride = attrs.get_size("stride", kernel);
      attrs.check_all_used();
      nn::Layer* added = model.network.add(std::make_unique<nn::Pool2dLayer>(
          name, mode == "max" ? nn::PoolMode::kMax : nn::PoolMode::kAvg,
          kernel, stride));
      shape = added->output_shape(shape);
    } else if (kind == "relu") {
      attrs.check_all_used();
      model.network.add(std::make_unique<nn::ReluLayer>(name));
    } else if (kind == "dropout") {
      const double p = attrs.get_double("p", 0.5);
      attrs.check_all_used();
      if (!have_dropout_seed) {
        dropout_seed = rng.next_u64();
        have_dropout_seed = true;
      }
      // Streams are keyed by (seed, name): a duplicate name would make two
      // layers drop the same elements in lockstep, so reject it here
      // (parse_model does not otherwise enforce name uniqueness).
      GS_CHECK_MSG(model.network.find(name) == nullptr,
                   "line " << line_no << ": duplicate dropout layer name '"
                           << name << "' would correlate mask streams");
      model.network.add(
          std::make_unique<nn::DropoutLayer>(name, p, dropout_seed));
    } else if (kind == "flatten") {
      attrs.check_all_used();
      GS_CHECK_MSG(!flat, "line " << line_no << ": duplicate flatten");
      shape = {shape_numel(shape)};
      flat = true;
      model.network.add(std::make_unique<nn::FlattenLayer>(name));
    } else if (kind == "dense" || kind == "lowrank_dense") {
      GS_CHECK_MSG(flat, "line " << line_no
                                 << ": dense layers need flatten first");
      const std::size_t in_features = shape[0];
      const std::size_t out_features = attrs.require_size("out");
      if (kind == "dense") {
        attrs.check_all_used();
        model.network.add(std::make_unique<nn::DenseLayer>(
            name, in_features, out_features, rng));
      } else {
        const std::size_t rank = attrs.get_size("rank", out_features);
        attrs.check_all_used();
        model.network.add(std::make_unique<nn::LowRankDense>(
            name, in_features, out_features, rank, rng));
      }
      shape = {out_features};
    } else {
      GS_FAIL("line " << line_no << ": unknown layer kind '" << kind << "'");
    }
  }
  GS_CHECK_MSG(!shape.empty(), "model has no input declaration");
  GS_CHECK_MSG(model.network.layer_count() > 0, "model has no layers");
  return model;
}

ParsedModel parse_model(const std::string& text, Rng& rng) {
  std::istringstream iss(text);
  return parse_model(iss, rng);
}

ParsedModel load_model(const std::string& path, Rng& rng) {
  std::ifstream in(path);
  GS_CHECK_MSG(in.good(), "cannot open model file " << path);
  return parse_model(in, rng);
}

std::string lenet_model_text() {
  return R"(# LeNet (paper Table 1 geometry), MNIST-shaped input
input 1 28 28
conv    name=conv1 out=20 kernel=5
pool    name=pool1 mode=max kernel=2 stride=2
conv    name=conv2 out=50 kernel=5
pool    name=pool2 mode=max kernel=2 stride=2
flatten name=flatten
dense   name=fc1 out=500
relu    name=relu1
dense   name=fc2 out=10
)";
}

std::string convnet_model_text() {
  return R"(# ConvNet (Caffe cifar10_quick, paper Table 1), CIFAR-shaped input
input 3 32 32
conv    name=conv1 out=32 kernel=5 pad=2
pool    name=pool1 mode=max kernel=3 stride=2
relu    name=relu1
conv    name=conv2 out=32 kernel=5 pad=2
relu    name=relu2
pool    name=pool2 mode=avg kernel=3 stride=2
conv    name=conv3 out=64 kernel=5 pad=2
relu    name=relu3
pool    name=pool3 mode=avg kernel=3 stride=2
flatten name=flatten
dense   name=fc1 out=10
)";
}

}  // namespace gs::core
