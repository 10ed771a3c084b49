// Train the attack model on the training corpus, save it to disk, reload
// it, and verify the reloaded model attacks identically — the workflow an
// attacker would use to build a model library per technology/flow.
// Exits 1 unless the reloaded model's CCR and selections equal the
// original's and re-saving it reproduces the saved file byte for byte.
//
// Usage: train_and_save_model [model_path] [split_layer]
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>

#include "attack/dl_attack.hpp"
#include "eval/experiment.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kInfo);
  sma::util::set_log_level_from_env();  // SMA_LOG_LEVEL overrides the default
  const std::string path = argc > 1 ? argv[1] : "attack_model.bin";
  const int split_layer = argc > 2 ? std::stoi(argv[2]) : 3;

  sma::eval::ExperimentProfile profile =
      sma::eval::ExperimentProfile::fast();
  profile.train.epochs = 8;

  // Small training corpus for the example.
  std::vector<sma::eval::PreparedSplit> prepared_store;
  std::vector<sma::attack::QueryDataset> training;
  int used = 0;
  for (const auto& p : sma::netlist::training_profiles()) {
    if (++used > 3) break;
    prepared_store.push_back(sma::eval::prepare_split(
        p, split_layer, sma::layout::FlowConfig{}, 100 + used));
    training.emplace_back(prepared_store.back().split.get(), profile.dataset);
  }
  std::vector<sma::attack::QueryDataset> validation;

  sma::nn::NetConfig net_config = profile.net;
  net_config.image_channels =
      static_cast<int>(profile.dataset.images.pixel_sizes.size());
  sma::attack::DlAttack dl(net_config);
  sma::attack::TrainStats stats =
      dl.train(training, validation, profile.train);
  std::cout << "trained in " << stats.seconds << "s over "
            << stats.queries_seen << " query presentations\n";

  {
    std::ofstream out(path, std::ios::binary);
    dl.net().save(out);
  }
  std::cout << "saved model to " << path << "\n";

  std::ifstream in(path, std::ios::binary);
  sma::attack::DlAttack reloaded(sma::nn::AttackNet::load(in));
  std::cout << "reloaded model with " << reloaded.net().num_parameters()
            << " parameters\n";

  // Verify identical behaviour on a fresh victim.
  sma::eval::PreparedSplit victim = sma::eval::prepare_split(
      sma::netlist::find_profile("v_cht"), split_layer,
      sma::layout::FlowConfig{}, 2020);
  sma::attack::QueryDataset d1(victim.split.get(), profile.dataset);
  sma::attack::QueryDataset d2(victim.split.get(), profile.dataset);
  const sma::attack::AttackResult r1 = dl.attack(d1);
  const sma::attack::AttackResult r2 = reloaded.attack(d2);
  bool same_selections = r1.selections.size() == r2.selections.size();
  for (std::size_t i = 0; same_selections && i < r1.selections.size(); ++i) {
    same_selections =
        r1.selections[i].sink_fragment == r2.selections[i].sink_fragment &&
        r1.selections[i].chosen_source == r2.selections[i].chosen_source;
  }
  std::cout << "victim CCR: original " << r1.ccr * 100 << "%, reloaded "
            << r2.ccr * 100 << "% (must match: "
            << (r1.ccr == r2.ccr ? "yes" : "NO") << "); selections "
            << (same_selections ? "match" : "DIFFER") << "\n";

  // Re-saving the reloaded model must reproduce the file's bytes.
  std::ifstream saved(path, std::ios::binary);
  const std::string file_bytes((std::istreambuf_iterator<char>(saved)),
                               std::istreambuf_iterator<char>());
  std::ostringstream resaved;
  reloaded.net().save(resaved);
  const bool same_bytes = resaved.str() == file_bytes;
  std::cout << "re-saved model " << (same_bytes ? "matches" : "DIFFERS from")
            << " the saved file (" << file_bytes.size() << " bytes)\n";
  return r1.ccr == r2.ccr && same_selections && same_bytes ? 0 : 1;
}
