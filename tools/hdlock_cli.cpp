/// \file hdlock_cli.cpp
/// Command-line front end over the api:: deployment layer, so a deployment
/// can be provisioned, trained, evaluated, exported and red-teamed without
/// writing C++.
///
/// Artifacts on disk (the `.hdlk` bundle format of api/bundle.hpp):
///   owner.hdlk   owner bundle: PublicStore + SECRET section (LockKey +
///                ValueMapping) + fitted MinMaxDiscretizer + trained
///                HdcModel.  Never leaves the owner's infrastructure.
///   device.hdlk  device bundle: PublicStore + materialized encoder state
///                (no key bytes anywhere in the file) + discretizer + model.
///                This is what ships.
///
/// Subcommands:
///   provision --dir D --features N [--dim D] [--levels M] [--layers L]
///             [--pool P] [--seed S]          create owner.hdlk + audit it
///   audit     --dir D                        re-audit key vs. store
///   train     --dir D --data train.csv [--kind binary|nonbinary]
///             [--epochs E]                   fit model; refresh device.hdlk
///   export    --dir D                        (re)write device.hdlk
///   rotate    --dir D --data train.csv [--seed S] [--kind K] [--epochs E]
///                                            rekey + retrain + epoch bump;
///                                            atomic rewrite of both bundles
///   eval      --dir D --data test.csv [--side auto|owner|device]
///             [--threads T] [--mmap on|off]
///             [--shards N] [--placement P]   batched accuracy via
///                                            api::InferenceSession, or the
///                                            api::ShardRouter fleet when
///                                            --shards/--placement are given
///   attack    --dir D --data train.csv --test test.csv [--kind K] [--seed S]
///                                            replay the Sec. 3.2 theft
///   complexity --features N [--dim D] [--pool P] [--layers L]
///                                            closed-form guess counts
///
/// Exit code 0 on success, 2 on usage errors, 1 on runtime failure.

#include <filesystem>
#include <iostream>
#include <string>

#include "api/api.hpp"
#include "attack/ip_theft.hpp"
#include "attack/locked_theft.hpp"
#include "cli_args.hpp"
#include "core/complexity.hpp"
#include "data/loaders.hpp"
#include "util/table.hpp"

namespace {

using namespace hdlock;
using cli::Args;
using cli::UsageError;
namespace fs = std::filesystem;

constexpr std::uint64_t kCliTieSeed = 0x7E11;

struct Paths {
    fs::path owner, device;

    explicit Paths(const fs::path& dir)
        : owner(dir / "owner.hdlk"), device(dir / "device.hdlk") {}
};

hdc::ModelKind parse_kind(const std::string& kind) {
    if (kind == "binary") return hdc::ModelKind::binary;
    if (kind == "nonbinary" || kind == "non-binary") return hdc::ModelKind::non_binary;
    throw UsageError("unknown --kind (use binary|nonbinary): " + kind);
}

int cmd_provision(const Args& args) {
    args.check_known("provision", {"dir", "features", "dim", "levels", "layers", "pool", "seed"});
    const fs::path dir = args.require("dir");
    fs::create_directories(dir);

    DeploymentConfig config;
    config.n_features = args.get_u64("features", 0);
    config.dim = args.get_u64("dim", 10000);
    config.n_levels = args.get_u64("levels", 16);
    config.n_layers = args.get_u64("layers", 2);
    config.pool_size = args.get_u64("pool", 0);
    config.seed = args.get_u64("seed", 1);
    config.tie_seed = kCliTieSeed;
    if (config.n_features == 0) throw UsageError("--features is required and must be > 0");

    const api::Owner owner = api::Owner::provision(config);
    const Paths paths(dir);
    owner.save(paths.owner);

    const auto audit = owner.audit();
    std::cout << "provisioned " << paths.owner.string() << " (N=" << config.n_features
              << ", D=" << config.dim << ", M=" << config.n_levels << ", L=" << config.n_layers
              << ", P=" << owner.store().pool_size() << ")\n"
              << "key audit: " << audit.summary() << "\n"
              << "attack complexity: "
              << util::format_pow10(complexity::log10_guesses(
                     config.n_features, config.dim, owner.store().pool_size(), config.n_layers))
              << " guesses\n";
    return audit.ok() ? 0 : 1;
}

int cmd_audit(const Args& args) {
    args.check_known("audit", {"dir"});
    const Paths paths{fs::path(args.require("dir"))};
    const auto report = api::Owner::load(paths.owner).audit();
    std::cout << report.summary() << "\n";
    return report.ok() ? 0 : 1;
}

int cmd_train(const Args& args) {
    args.check_known("train", {"dir", "data", "kind", "epochs"});
    const Paths paths{fs::path(args.require("dir"))};
    const auto dataset = data::load_csv(args.require("data"));

    api::Owner owner = api::Owner::load(paths.owner);
    api::TrainOptions options;
    options.kind = parse_kind(args.get("kind", "binary"));
    options.retrain_epochs = static_cast<int>(args.get_u64("epochs", 10));
    const double train_accuracy = owner.train(dataset, options);

    owner.save(paths.owner);
    owner.export_device(paths.device);
    std::cout << "trained on " << dataset.n_samples() << " samples ("
              << owner.model().epochs_run() << " retrain epochs); train accuracy "
              << util::format_fixed(train_accuracy, 4) << "\n"
              << "wrote " << paths.owner.string() << " and key-free " << paths.device.string()
              << "\n";
    return 0;
}

int cmd_rotate(const Args& args) {
    args.check_known("rotate", {"dir", "data", "kind", "epochs", "seed"});
    const Paths paths{fs::path(args.require("dir"))};
    const auto dataset = data::load_csv(args.require("data"));

    api::Owner owner = api::Owner::load(paths.owner);
    api::RotateOptions options;
    options.seed = args.get_u64("seed", 1);
    options.train.kind = parse_kind(args.get("kind", "binary"));
    options.train.retrain_epochs = static_cast<int>(args.get_u64("epochs", 10));
    const api::RotationReport report = owner.rotate(dataset, options);

    // Crash-safe rewrites: a power cut mid-rotation must leave both
    // artifacts at the previous epoch, never torn.
    owner.save_atomic(paths.owner);
    owner.export_device_atomic(paths.device);
    std::cout << "rotated key: epoch " << report.previous_epoch << " -> " << report.epoch
              << "; retrained on " << dataset.n_samples() << " samples, train accuracy "
              << util::format_fixed(report.train_accuracy, 4) << "\n"
              << "wrote " << paths.owner.string() << " and key-free " << paths.device.string()
              << " (atomic rename)\n"
              << "live fleets pick up epoch " << report.epoch
              << " via InferenceSession::swap_bundle / ShardRouter::swap_all\n";
    return 0;
}

int cmd_export(const Args& args) {
    args.check_known("export", {"dir"});
    const Paths paths{fs::path(args.require("dir"))};
    const api::Owner owner = api::Owner::load(paths.owner);
    owner.export_device(paths.device);
    std::cout << "exported " << paths.device.string() << " ("
              << fs::file_size(paths.device) << " B, no key section)\n";
    return 0;
}

int cmd_eval(const Args& args) {
    args.check_known("eval", {"dir", "data", "side", "threads", "mmap", "shards", "placement"});
    const Paths paths{fs::path(args.require("dir"))};
    const auto dataset = data::load_csv(args.require("data"));

    api::SessionOptions session_options;
    session_options.n_threads = args.get_u64("threads", 1);

    const std::string side = args.get("side", "auto");
    const bool use_device =
        side == "device" || (side == "auto" && fs::exists(paths.device));
    if (side != "auto" && side != "owner" && side != "device") {
        throw UsageError("unknown --side (use auto|owner|device): " + side);
    }
    const std::string mmap = args.get("mmap", "on");
    if (mmap != "on" && mmap != "off") throw UsageError("unknown --mmap (use on|off): " + mmap);

    // --shards / --placement switch evaluation onto the shard-router
    // serving tier (typed requests through api::ShardRouter); the default
    // stays the single-session path.
    const std::size_t shards = args.get_u64("shards", 1);
    const std::string placement_arg = args.get("placement", "least-loaded");
    const auto placement = api::parse_placement(placement_arg);
    if (!placement) {
        throw UsageError(
            "unknown --placement (use round-robin|least-loaded|consistent-hash): " +
            placement_arg);
    }

    if (shards > 1 || args.has("placement")) {
        api::RouterOptions router_options;
        router_options.n_shards = shards;
        router_options.placement = *placement;
        router_options.session = session_options;
        const api::ShardRouter router =
            use_device ? (mmap == "on" ? api::Device::open_mapped(paths.device)
                                       : api::Device::load(paths.device))
                             .open_router(router_options)
                       : api::Owner::load(paths.owner).open_router(router_options);

        // Closed-loop accuracy sweep in fixed-size typed requests: awaiting
        // each response keeps the fleet inside its watermark, so every
        // request serves Ok and the count is exact.
        constexpr std::size_t kRowsPerRequest = 64;
        std::size_t correct = 0;
        for (std::size_t begin = 0; begin < dataset.n_samples(); begin += kRowsPerRequest) {
            const std::size_t n =
                std::min(kRowsPerRequest, dataset.n_samples() - begin);
            api::Request request;
            request.rows = util::Matrix<float>(n, dataset.X.cols());
            for (std::size_t r = 0; r < n; ++r) {
                const auto source = dataset.X.row(begin + r);
                std::copy(source.begin(), source.end(), request.rows.row(r).begin());
            }
            const api::Response response = router.submit(std::move(request)).get();
            if (response.status != api::Status::ok) {
                throw Error(std::string("router eval: request not served: ") +
                            api::status_name(response.status));
            }
            for (std::size_t r = 0; r < n; ++r) {
                if (response.labels[r] == dataset.y[begin + r]) ++correct;
            }
        }
        const double accuracy =
            dataset.n_samples() == 0
                ? 0.0
                : static_cast<double>(correct) / static_cast<double>(dataset.n_samples());
        std::cout << "accuracy on " << dataset.n_samples() << " samples ("
                  << (use_device ? "device" : "owner") << " bundle, "
                  << router.n_shards() << " shard(s), "
                  << api::placement_name(router.placement()) << ", "
                  << session_options.n_threads << " thread(s)/shard): "
                  << util::format_fixed(accuracy, 4) << "\n";
        return 0;
    }

    // The session outlives the facade it came from: it shares the encoder
    // (and, under --mmap on, the bundle mapping) and copies the discretizer
    // + model; device startup defaults to the zero-copy mapped path.
    const api::InferenceSession session =
        use_device ? (mmap == "on" ? api::Device::open_mapped(paths.device)
                                   : api::Device::load(paths.device))
                         .open_session(session_options)
                   : api::Owner::load(paths.owner).open_session(session_options);
    const double accuracy = session.evaluate(dataset);
    std::cout << "accuracy on " << dataset.n_samples() << " samples ("
              << (use_device ? "device" : "owner") << " bundle, "
              << session.n_threads() << " thread(s)): "
              << util::format_fixed(accuracy, 4) << "\n";
    return 0;
}

int cmd_attack(const Args& args) {
    args.check_known("attack", {"dir", "data", "test", "kind", "seed"});
    const auto train = data::load_csv(args.require("data"));
    const auto test = data::load_csv(args.require("test"));
    const Paths paths{fs::path(args.require("dir"))};

    // The attack replay needs the ground truth for scoring, so it runs off
    // the owner bundle's Deployment bridge (unsealed SecureStore).
    const api::Owner owner = api::Owner::load(paths.owner);
    const Deployment& deployment = owner.deployment();

    if (owner.key().is_plain()) {
        attack::IpTheftConfig config;
        config.kind = parse_kind(args.get("kind", "binary"));
        config.seed = args.get_u64("seed", 1);
        const auto report = attack::steal_model(deployment, train, test, config);
        std::cout << "UNPROTECTED deployment: attack succeeded\n"
                  << "  original accuracy  " << util::format_fixed(report.original_accuracy, 4)
                  << "\n  recovered accuracy " << util::format_fixed(report.recovered_accuracy, 4)
                  << "\n  mapping recovered  "
                  << util::format_fixed(report.feature_mapping_accuracy, 4) << " (features), "
                  << util::format_fixed(report.value_mapping_accuracy, 4) << " (values)"
                  << "\n  reasoning time     " << util::format_fixed(report.reasoning_seconds, 3)
                  << " s, " << report.guesses << " guesses\n";
        return 0;
    }

    attack::LockedTheftConfig config;
    config.kind = parse_kind(args.get("kind", "binary"));
    config.seed = args.get_u64("seed", 1);
    const auto report = attack::steal_locked_model(deployment, train, test, config);
    std::cout << "HDLock deployment (L=" << report.n_layers << "): attack failed\n"
              << "  victim accuracy    " << util::format_fixed(report.original_accuracy, 4)
              << "\n  transfer accuracy  " << util::format_fixed(report.transfer_accuracy, 4)
              << " (chance " << util::format_fixed(report.chance_accuracy, 4) << ")"
              << "\n  FeaHVs recovered   " << util::format_fixed(report.feature_hv_recovery, 4)
              << "\n  required guesses   "
              << util::format_pow10(report.log10_guesses_required) << "\n";
    return 0;
}

int cmd_complexity(const Args& args) {
    args.check_known("complexity", {"features", "dim", "pool", "layers"});
    const std::size_t n_features = args.get_u64("features", 784);
    const std::size_t dim = args.get_u64("dim", 10000);
    const std::size_t pool = args.get_u64("pool", n_features);

    util::TextTable table({"L", "guesses", "gain_over_plain", "secure_key_bits"});
    for (std::size_t layers = 0; layers <= args.get_u64("layers", 5); ++layers) {
        const auto footprint = complexity::footprint(n_features, dim, pool, layers, 16, 10);
        table.add_row({std::to_string(layers),
                       util::format_pow10(complexity::log10_guesses(n_features, dim, pool,
                                                                    layers)),
                       util::format_pow10(complexity::security_gain_log10(n_features, dim, pool,
                                                                          layers)),
                       util::format_bits(footprint.secure_key_bits)});
    }
    std::cout << table.to_string();
    return 0;
}

int usage(std::ostream& out, int code) {
    out << "hdlock_cli -- HDLock deployment toolkit (.hdlk bundles)\n"
           "usage: hdlock_cli <provision|audit|train|export|rotate|eval|attack|complexity> [--flags]\n"
           "see the header comment of tools/hdlock_cli.cpp for per-command flags\n";
    return code;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage(std::cerr, 2);
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help") return usage(std::cout, 0);
    try {
        const Args args(argc, argv, 2);
        if (command == "provision") return cmd_provision(args);
        if (command == "audit") return cmd_audit(args);
        if (command == "train") return cmd_train(args);
        if (command == "export") return cmd_export(args);
        if (command == "rotate") return cmd_rotate(args);
        if (command == "eval") return cmd_eval(args);
        if (command == "attack") return cmd_attack(args);
        if (command == "complexity") return cmd_complexity(args);
        std::cerr << "unknown command: " << command << "\n";
        return usage(std::cerr, 2);
    } catch (const UsageError& error) {
        std::cerr << "usage error: " << error.what() << "\n";
        return usage(std::cerr, 2);
    } catch (const Error& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    } catch (const std::exception& error) {
        std::cerr << "internal error: " << error.what() << "\n";
        return 1;
    }
}
