#include "core/sgcl_config.h"

#include "common/string_util.h"

namespace sgcl {

SgclConfig MakeUnsupervisedConfig(int64_t feat_dim) {
  SgclConfig cfg;
  cfg.encoder.arch = GnnArch::kGin;
  cfg.encoder.in_dim = feat_dim;
  cfg.encoder.hidden_dim = 32;
  cfg.encoder.num_layers = 3;
  cfg.encoder.pooling = PoolingKind::kSum;
  cfg.proj_dim = 32;
  return cfg;
}

SgclConfig MakeTransferConfig(int64_t feat_dim, int64_t hidden_dim) {
  SgclConfig cfg;
  cfg.encoder.arch = GnnArch::kGin;
  cfg.encoder.in_dim = feat_dim;
  cfg.encoder.hidden_dim = hidden_dim;
  cfg.encoder.num_layers = 5;
  cfg.encoder.pooling = PoolingKind::kSum;
  cfg.proj_dim = hidden_dim;
  cfg.epochs = 80;
  return cfg;
}

Status SgclConfig::Validate() const {
  const auto invalid = [](const char* field, const std::string& detail) {
    return Status::InvalidArgument(
        StrFormat("SgclConfig.%s %s", field, detail.c_str()));
  };
  if (encoder.in_dim <= 0) {
    return invalid("encoder.in_dim",
                   StrFormat("must be positive, got %lld",
                             static_cast<long long>(encoder.in_dim)));
  }
  if (encoder.hidden_dim <= 0) {
    return invalid("encoder.hidden_dim",
                   StrFormat("must be positive, got %lld",
                             static_cast<long long>(encoder.hidden_dim)));
  }
  if (encoder.num_layers <= 0) {
    return invalid("encoder.num_layers",
                   StrFormat("must be positive, got %d", encoder.num_layers));
  }
  if (proj_dim <= 0) {
    return invalid("proj_dim",
                   StrFormat("must be positive, got %lld",
                             static_cast<long long>(proj_dim)));
  }
  if (!(tau > 0.0f)) {
    return invalid("tau", StrFormat("must be > 0, got %g",
                                    static_cast<double>(tau)));
  }
  if (lambda_c < 0.0f) {
    return invalid("lambda_c", StrFormat("must be >= 0, got %g",
                                         static_cast<double>(lambda_c)));
  }
  if (lambda_w < 0.0f) {
    return invalid("lambda_w", StrFormat("must be >= 0, got %g",
                                         static_cast<double>(lambda_w)));
  }
  if (!(rho >= 0.0 && rho <= 1.0)) {
    return invalid("rho", StrFormat("must be in [0, 1], got %g", rho));
  }
  if (!(learning_rate > 0.0f)) {
    return invalid("learning_rate",
                   StrFormat("must be > 0, got %g",
                             static_cast<double>(learning_rate)));
  }
  if (epochs <= 0) {
    return invalid("epochs", StrFormat("must be positive, got %d", epochs));
  }
  if (batch_size < 2) {
    return invalid("batch_size",
                   StrFormat("must be >= 2 (InfoNCE needs a negative), "
                             "got %d",
                             batch_size));
  }
  if (!(grad_clip > 0.0f)) {
    return invalid("grad_clip", StrFormat("must be > 0, got %g",
                                          static_cast<double>(grad_clip)));
  }
  return Status::OK();
}

}  // namespace sgcl
