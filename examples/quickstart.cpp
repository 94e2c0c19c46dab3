/// \file quickstart.cpp
/// Smallest end-to-end use of the library: deploy an HDLock-protected HDC
/// classifier through the api:: layer, train it, and serve a batch — the
/// model owner's view.
///
///   $ ./quickstart
///
/// Walkthrough:
///   1. generate a dataset (swap in data::load_csv for your own);
///   2. api::Owner::provision a protected device: public hypervector store,
///      tamper-proof key, locked encoder — one call;
///   3. owner.train() the classification pipeline (discretize -> encode ->
///      train);
///   4. hand the field a key-free api::Device and serve a whole batch
///      through an InferenceSession;
///   5. seal the key memory for deployment.

#include <algorithm>
#include <iostream>

#include "api/api.hpp"
#include "data/synthetic.hpp"

int main() {
    using namespace hdlock;

    // 1. A small 4-class dataset (200 train / 100 test samples, 64 features).
    data::SyntheticSpec spec;
    spec.name = "quickstart";
    spec.n_features = 64;
    spec.n_classes = 4;
    spec.n_train = 200;
    spec.n_test = 100;
    spec.n_levels = 8;
    spec.noise = 0.12;
    spec.seed = 42;
    const auto benchmark = data::make_benchmark(spec);

    // 2. Provision a protected device: D = 4096, a two-layer key over a
    //    64-entry public base pool.
    DeploymentConfig config;
    config.dim = 4096;
    config.n_features = spec.n_features;
    config.n_levels = spec.n_levels;
    config.n_layers = 2;
    config.seed = 7;
    api::Owner owner = api::Owner::provision(config);

    std::cout << "provisioned: D=" << config.dim << ", P=" << owner.store().pool_size()
              << " public bases, L=" << config.n_layers << " key layers\n";

    // 3. Train a binary HDC model through the locked encoder.
    api::TrainOptions train;
    train.kind = hdc::ModelKind::binary;
    train.retrain_epochs = 10;
    owner.train(benchmark.train, train);
    std::cout << "test accuracy (owner side): " << owner.evaluate(benchmark.test) << "\n";

    // 4. What ships: a Device built from the key-free bundle.  Its type has
    //    no key accessor — attack code handed this object cannot reach the
    //    secrets.  Serving is batched: one predict() call classifies the
    //    whole test matrix across worker threads.
    const api::Device device = owner.make_device();
    const auto session = device.open_session({.n_threads = 4});
    const std::vector<int> predicted = session.predict(benchmark.test.X);
    std::cout << "device served " << session.rows_served() << " rows; first sample: predicted "
              << predicted.front() << ", true class " << benchmark.test.y.front() << "\n";

    //    Independent small callers go through predict_async(): the session
    //    coalesces concurrent requests into micro-batches on its worker
    //    pool, and the response carries exactly the labels predict() returns.
    api::Request request;
    request.rows = util::Matrix<float>(1, benchmark.test.n_features());
    const auto first = benchmark.test.X.row(0);
    std::copy(first.begin(), first.end(), request.rows.row(0).begin());
    const api::Response response = session.predict_async(std::move(request)).get();
    const bool agrees = response.ok() && response.labels.front() == predicted.front();
    std::cout << "async single-row predict agrees with the batch: " << (agrees ? "yes" : "NO")
              << "\n";
    if (!agrees) return 1;

    // 5. Deployed state: the key becomes unreadable, the device keeps
    //    working (it holds only materialized feature hypervectors).
    owner.deployment().secure->seal();
    std::cout << "secure store sealed; device still serves: H has dim "
              << device.encoder().encode(std::vector<int>(spec.n_features, 0)).dim() << "\n";
    return 0;
}
