//! Weather monitoring — the paper's §1 motivating application:
//! "Monitoring of weather and prediction of catastrophic conditions to
//! provide planning and decision support for emergency relief."
//!
//! Sensor processes on many hosts publish readings into a multicast
//! group; an analysis process aggregates them and raises alerts; a
//! console serves the current picture over the simulated HTTP protocol
//! (§3.7), located through RC metadata. Mid-run one sensor host
//! crashes — the system degrades gracefully instead of failing.
//!
//! Run with: `cargo run --example weather_monitor`

use bytes::Bytes;
use snipe::core::console::{BrowserActor, ConsoleActor};
use snipe::core::{GroupEvent, SnipeApi, SnipeProcess, SnipeWorldBuilder};
use snipe::rcds::uri::Uri;
use snipe::util::time::SimDuration;
use std::sync::{Arc, Mutex};

const GROUP: &str = "weather-feed";

/// A sensor: samples a (synthetic) pressure value on a timer and
/// publishes to the group.
struct Sensor {
    station: u32,
    sample: u32,
}

impl SnipeProcess for Sensor {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.join_group(GROUP);
    }
    fn on_group_event(&mut self, api: &mut SnipeApi<'_, '_>, _g: &str, event: GroupEvent) {
        if event == GroupEvent::Joined {
            api.set_timer(SimDuration::from_millis(200), 1);
        }
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        self.sample += 1;
        // Synthetic pressure: station-dependent wave; station 3 dives
        // toward a storm.
        let base = 1013 - self.station as i64;
        let dip = if self.station == 3 && self.sample > 10 { self.sample as i64 * 2 } else { 0 };
        let pressure = base - dip;
        api.send_group(GROUP, format!("{}:{}", self.station, pressure).into_bytes());
        api.set_timer(SimDuration::from_millis(200), 1);
    }
}

/// The analyst: aggregates readings, detects the storm signature,
/// shares the latest picture with its console page through an Rc cell.
struct Analyst {
    latest: Arc<Mutex<String>>,
    readings: u32,
    alerts: u32,
}

impl SnipeProcess for Analyst {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.join_group(GROUP);
        api.log("analyst online, joining weather feed");
    }
    fn on_group_message(&mut self, api: &mut SnipeApi<'_, '_>, _g: &str, _origin: u64, msg: Bytes) {
        self.readings += 1;
        let text = String::from_utf8_lossy(&msg).into_owned();
        if let Some((station, pressure)) = text.split_once(':') {
            if let Ok(p) = pressure.parse::<i64>() {
                if p < 980 {
                    self.alerts += 1;
                    if self.alerts == 1 {
                        api.log(format!(
                            "ALERT: station {station} pressure {p} hPa — storm forming"
                        ));
                    }
                }
                *self.latest.lock().unwrap() = format!(
                    "readings={} alerts={} last: station {station} at {p} hPa",
                    self.readings, self.alerts
                );
            }
        }
    }
}

fn main() {
    // Five hosts: RC/RM/files on host0, sensors on 1..3, analyst+console
    // on host4.
    let mut world = SnipeWorldBuilder::lan(5, 7).build();
    world.echo_logs();
    let latest = Arc::new(Mutex::new("no data yet".to_string()));

    for station in 1..=3u32 {
        world.register_process(format!("sensor{station}"), move |_| {
            Box::new(Sensor { station, sample: 0 })
        });
    }
    let l = latest.clone();
    world.register_process("analyst", move |_| {
        Box::new(Analyst { latest: l.clone(), readings: 0, alerts: 0 })
    });

    for station in 1..=3u32 {
        world
            .spawn_on(&format!("host{station}"), &format!("sensor{station}"), Bytes::new())
            .expect("spawn sensor");
    }
    world.spawn_on("host4", "analyst", Bytes::new()).expect("spawn analyst");

    // Console: publishes the analyst's picture at a stable URL.
    let rc = world.rc_endpoints().to_vec();
    let url = Uri::parse("http://weather.snipe/").unwrap();
    let page_data = latest.clone();
    let console = ConsoleActor::new(url.clone(), rc.clone())
        .page("/status", move || page_data.lock().unwrap().clone());
    let h4 = world.sim_ref().topology().host_by_name("host4").unwrap();
    world.sim().spawn(h4, 80, Box::new(console));

    // A browser polls the console twice: before and after the crash.
    let responses = Arc::new(Mutex::new(Vec::new()));
    let browser = BrowserActor::new(
        rc,
        vec![
            (SimDuration::from_secs(4), url.clone(), "/status".into()),
            (SimDuration::from_secs(8), url, "/status".into()),
        ],
        responses.clone(),
    );
    let h0 = world.sim_ref().topology().host_by_name("host0").unwrap();
    world.sim().spawn(h0, 8080, Box::new(browser));

    // Crash sensor host 1 at t=6s: the feed must keep flowing.
    let h1 = world.sim_ref().topology().host_by_name("host1").unwrap();
    world.run_for_secs(6);
    println!(">>> host1 (sensor 1) crashes");
    world.sim().host_down(h1);
    world.run_for_secs(8);

    println!("\n--- console fetches ---");
    for (status, body) in responses.lock().unwrap().iter() {
        println!("HTTP {status}: {body}");
    }
    println!("\nfinal picture: {}", latest.lock().unwrap());
}
