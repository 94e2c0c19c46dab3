#pragma once

/// \file api.hpp
/// Umbrella header for the deployment & serving layer.
///
/// The canonical way to use this library:
///
///     auto owner = api::Owner::provision(config);   // privileged side
///     owner.train(train_set);
///     owner.save("deployment.hdlk");                // owner artifact
///     owner.export_device("device.hdlk");           // key-free artifact
///
///     auto device = api::Device::open_mapped("device.hdlk");  // zero-copy
///     auto session = device.open_session({.n_threads = 8});
///     std::vector<int> labels = session.predict(batch);       // pooled
///     api::Request request;
///     request.rows = std::move(more_rows);
///     auto future = session.predict_async(std::move(request)); // micro-batched
///
///     auto router = device.open_router({.n_shards = 4});      // the fleet
///     auto response = router.submit({.rows = std::move(rows),
///                                    .deadline = util::Deadline::after(5ms)});
///
/// See facades.hpp for the privilege model, bundle.hpp for the `.hdlk`
/// format, inference_session.hpp for the serving contract, request.hpp +
/// shard_router.hpp for the typed request path and the fleet layer.

#include "api/bundle.hpp"            // IWYU pragma: export
#include "api/facades.hpp"           // IWYU pragma: export
#include "api/inference_session.hpp" // IWYU pragma: export
#include "api/request.hpp"           // IWYU pragma: export
#include "api/sealed_encoder.hpp"    // IWYU pragma: export
#include "api/shard_router.hpp"      // IWYU pragma: export
